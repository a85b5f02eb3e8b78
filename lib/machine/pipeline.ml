(** In-order single-issue pipeline simulator.

    Scores an instruction ordering under a latency model by computing, for
    each instruction, its issue cycle given interlocks on data dependencies
    and busy non-pipelined FP units.  This is the quality metric used to
    compare scheduling algorithms: the paper compares construction/heuristic
    *cost*; we additionally report the schedules' simulated cycle counts so
    examples and ablations can show who wins.

    The simulator is deliberately a hardware model, independent of the DAG:
    it tracks per-resource writer/reader issue times directly, so it can
    also validate that a schedule never consumes a value before the machine
    produces it.

    It runs in two steps.  [decode] reads the block once, in the manner of
    the paper's table-building construction: each resource gets a dense
    block-local id, and the instructions' definitions, uses and per-insn
    costs land in int arrays of this domain's scratch.  The table builders
    construct their DAGs from that decode, and scoring reuses it while it
    is current, so a constructed block is read exactly once.  [simulate]
    replays any ordering of the block over a decode, keeping the "record
    of the last definition of a resource and the set of current uses"
    (§2) as per-id arrays and pooled reader chains.  Readers stay a chain
    rather than a maximum because the WAR delay depends on the reading
    instruction. *)

open Ds_isa

type result = {
  issue_cycle : int array;   (* per instruction, in sequence order *)
  completion : int;          (* cycle after the last result is ready *)
  stall_cycles : int;        (* issue-slot bubbles from interlocks *)
}

(* One block, read once (layout in pipeline.mli).  The domain's decode
   reuses its arrays from block to block; [scan] copies the live
   prefixes. *)
type scan = {
  mutable gen : int;
  mutable model : Latency.t;
  mutable insns : Insn.t array;
  mutable n_res : int;
  mutable res : Resource.t array;
  mutable def_start : int array;
  mutable def_ids : int array;
  mutable use_start : int array;
  mutable use_ids : int array;
  mutable exec : int array;
  mutable busy : int array;      (* fp_busy *)
  mutable unit : int array;      (* Funit index *)
}

type scratch = {
  ids : Resource.Ids.t;        (* persists across blocks, up to a bound *)
  buf : Insn.Scan.buf;
  (* decode: [ids] id -> block-local id, valid iff stamp = epoch *)
  mutable epoch : int;
  mutable stamp : int array;
  mutable local : int array;
  dec : scan;
  (* simulate: per block-local id *)
  mutable writer : int array;          (* insn index, or -1 *)
  mutable writer_issue : int array;
  mutable writer_def_pos : int array;
  mutable readers : int array;         (* reader chain head slot, or -1 *)
  (* reader slots, rewound per simulation *)
  mutable slot_insn : int array;
  mutable slot_issue : int array;
  mutable slot_next : int array;
  unit_free : int array;
  mutable issue_buf : int array;
  mutable identity : int array;        (* 0, 1, 2, ... *)
}

(* Decode generations are unique across the process, so a generation
   recorded on one domain never matches another domain's decode. *)
let next_gen = Atomic.make 1

let fresh_scratch () =
  { ids = Resource.Ids.create ();
    buf = Insn.Scan.create ();
    epoch = 0;
    stamp = Array.make 128 (-1);
    local = Array.make 128 0;
    dec =
      { gen = 0; model = Latency.simple_risc; insns = [||]; n_res = 0;
        res = Array.make 64 Resource.Ctrl;
        def_start = Array.make 64 0; def_ids = Array.make 64 0;
        use_start = Array.make 64 0; use_ids = Array.make 64 0;
        exec = Array.make 64 0; busy = Array.make 64 0;
        unit = Array.make 64 0 };
    writer = [||];
    writer_issue = [||];
    writer_def_pos = [||];
    readers = [||];
    slot_insn = [||];
    slot_issue = [||];
    slot_next = [||];
    unit_free = Array.make Funit.count 0;
    issue_buf = [||];
    identity = [||] }

let scratch_key = Domain.DLS.new_key fresh_scratch

let grow a len fill =
  let grown = Array.make (max len (2 * Array.length a)) fill in
  Array.blit a 0 grown 0 (Array.length a);
  grown

(* The block-local id of the buffer's [j]th resource. *)
let local_id s j =
  let g = Insn.Scan.id s.ids s.buf j in
  if g >= Array.length s.stamp then begin
    s.stamp <- grow s.stamp (g + 1) (-1);
    s.local <- grow s.local (g + 1) 0
  end;
  if s.stamp.(g) = s.epoch then s.local.(g)
  else begin
    let d = s.dec in
    let l = d.n_res in
    d.n_res <- l + 1;
    s.stamp.(g) <- s.epoch;
    s.local.(g) <- l;
    if l >= Array.length d.res then d.res <- grow d.res (l + 1) Resource.Ctrl;
    d.res.(l) <- Resource.Ids.resource s.ids g;
    l
  end

(* Append the buffer's resources as block-local ids to [ids] from [k];
   returns the array (grown if needed) and the new count. *)
let push_scanned s ids k =
  let b = s.buf in
  let len = Insn.Scan.len b in
  let ids = if k + len > Array.length ids then grow ids (k + len) 0 else ids in
  for j = 0 to len - 1 do
    ids.(k + j) <- local_id s j
  done;
  ids

(* The intern table keeps every memory expression it has seen, so a
   long-lived domain (the serve daemon's) would grow with each new one
   for ever.  Once it holds more than this many, the next decode starts
   it afresh: ids are only read through [local], whose stamps the new
   epoch invalidates.  The paper's corpora stay below the bound (full
   fpppp has 3,338 expressions, the other eight Table-3 programs about
   7,000 together), so a pass over them never re-interns. *)
let max_interned = 8192

let decode (model : Latency.t) insns =
  let s = Domain.DLS.get scratch_key in
  let d = s.dec in
  if Resource.Ids.interned s.ids > max_interned then Resource.Ids.clear s.ids;
  s.epoch <- s.epoch + 1;
  d.gen <- Atomic.fetch_and_add next_gen 1;
  d.model <- model;
  d.insns <- insns;
  d.n_res <- 0;
  let n = Array.length insns in
  if n + 1 > Array.length d.def_start then begin
    d.def_start <- grow d.def_start (n + 1) 0;
    d.use_start <- grow d.use_start (n + 1) 0;
    d.exec <- grow d.exec (n + 1) 0;
    d.busy <- grow d.busy (n + 1) 0;
    d.unit <- grow d.unit (n + 1) 0
  end;
  let n_defs = ref 0 and n_uses = ref 0 in
  for i = 0 to n - 1 do
    let insn = insns.(i) in
    d.def_start.(i) <- !n_defs;
    Insn.scan_defs s.buf insn;
    d.def_ids <- push_scanned s d.def_ids !n_defs;
    n_defs := !n_defs + Insn.Scan.len s.buf;
    d.use_start.(i) <- !n_uses;
    Insn.scan_uses s.buf insn;
    d.use_ids <- push_scanned s d.use_ids !n_uses;
    n_uses := !n_uses + Insn.Scan.len s.buf;
    d.exec.(i) <- model.Latency.exec_time insn;
    d.busy.(i) <- model.Latency.fp_busy insn;
    d.unit.(i) <- Funit.index (Funit.of_insn insn)
  done;
  d.def_start.(n) <- !n_defs;
  d.use_start.(n) <- !n_uses;
  d

let decoded ~gen model insns =
  let d = (Domain.DLS.get scratch_key).dec in
  if d.gen = gen then d else decode model insns

let scan model insns =
  let d = decode model insns in
  let n = Array.length insns in
  { gen = -1; model; insns;
    n_res = d.n_res;
    res = Array.sub d.res 0 d.n_res;
    def_start = Array.sub d.def_start 0 (n + 1);
    def_ids = Array.sub d.def_ids 0 d.def_start.(n);
    use_start = Array.sub d.use_start 0 (n + 1);
    use_ids = Array.sub d.use_ids 0 d.use_start.(n);
    exec = Array.sub d.exec 0 n;
    busy = Array.sub d.busy 0 n;
    unit = Array.sub d.unit 0 n }

let reset_state s sc =
  let k = sc.n_res in
  if k > Array.length s.writer then begin
    let len = max k (2 * Array.length s.writer) in
    s.writer <- Array.make len (-1);
    s.writer_issue <- Array.make len 0;
    s.writer_def_pos <- Array.make len 0;
    s.readers <- Array.make len (-1)
  end;
  Array.fill s.writer 0 k (-1);
  Array.fill s.readers 0 k (-1);
  Array.fill s.unit_free 0 Funit.count 0

(* Issue [order.(0 .. len-1)] (indices into the decoded block) writing
   each issue cycle into [issue].  Each instruction issues no earlier
   than the slot after its predecessor, after every RAW producer's
   result, after every current reader of a resource it redefines (WAR)
   and its previous writer (WAW), and once its non-pipelined unit is
   free. *)
let run_into s sc order len issue =
  reset_state s sc;
  let n_readers = sc.use_start.(Array.length sc.insns) in
  if n_readers > Array.length s.slot_insn then begin
    let len = max n_readers (2 * Array.length s.slot_insn) in
    s.slot_insn <- Array.make len 0;
    s.slot_issue <- Array.make len 0;
    s.slot_next <- Array.make len 0
  end;
  let model = sc.model and insns = sc.insns in
  let writer = s.writer and writer_issue = s.writer_issue in
  let writer_def_pos = s.writer_def_pos and readers = s.readers in
  let slot_insn = s.slot_insn and slot_issue = s.slot_issue in
  let slot_next = s.slot_next and unit_free = s.unit_free in
  let slots = ref 0 and stalls = ref 0 and completion = ref 0 in
  let prev = ref (-1) in
  for p = 0 to len - 1 do
    let i = order.(p) in
    let child = insns.(i) in
    let min_issue = !prev + 1 in
    let earliest = ref min_issue in
    let u0 = sc.use_start.(i) and u1 = sc.use_start.(i + 1) in
    let d0 = sc.def_start.(i) and d1 = sc.def_start.(i + 1) in
    (* RAW: every used resource must have been produced *)
    for u = u0 to u1 - 1 do
      let id = sc.use_ids.(u) in
      let w = writer.(id) in
      if w >= 0 then begin
        let lat =
          model.Latency.raw ~parent:insns.(w) ~def_pos:writer_def_pos.(id)
            ~res:sc.res.(id) ~child ~use_pos:(u - u0)
        in
        earliest := Int.max !earliest (writer_issue.(id) + lat)
      end
    done;
    (* WAR and WAW on every defined resource *)
    for d = d0 to d1 - 1 do
      let id = sc.def_ids.(d) in
      let res = sc.res.(id) in
      let r = ref readers.(id) in
      while !r >= 0 do
        let lat =
          model.Latency.war ~parent:insns.(slot_insn.(!r)) ~res ~child
        in
        earliest := Int.max !earliest (slot_issue.(!r) + lat);
        r := slot_next.(!r)
      done;
      let w = writer.(id) in
      if w >= 0 then begin
        let lat = model.Latency.waw ~parent:insns.(w) ~res ~child in
        earliest := Int.max !earliest (writer_issue.(id) + lat)
      end
    done;
    (* structural hazard: non-pipelined FP unit still busy *)
    let busy = sc.busy.(i) in
    if busy > 0 then earliest := Int.max !earliest unit_free.(sc.unit.(i));
    let t = !earliest in
    issue.(p) <- t;
    prev := t;
    stalls := !stalls + (t - min_issue);
    if busy > 0 then unit_free.(sc.unit.(i)) <- t + busy;
    (* record definitions, then uses *)
    for d = d0 to d1 - 1 do
      let id = sc.def_ids.(d) in
      writer.(id) <- i;
      writer_issue.(id) <- t;
      writer_def_pos.(id) <- d - d0;
      readers.(id) <- -1
    done;
    for u = u0 to u1 - 1 do
      let id = sc.use_ids.(u) in
      let slot = !slots in
      incr slots;
      slot_insn.(slot) <- i;
      slot_issue.(slot) <- t;
      slot_next.(slot) <- readers.(id);
      readers.(id) <- slot
    done;
    completion := Int.max !completion (t + sc.exec.(i))
  done;
  { issue_cycle = issue; completion = !completion; stall_cycles = !stalls }

let simulate sc order =
  let len = Array.length order in
  run_into (Domain.DLS.get scratch_key) sc order len (Array.make len 0)

(* the completion alone, issuing into a scratch array *)
let completion_of s sc order len =
  if len > Array.length s.issue_buf then
    s.issue_buf <- Array.make (max len (2 * Array.length s.issue_buf)) 0;
  (run_into s sc order len s.issue_buf).completion

let completion sc order =
  completion_of (Domain.DLS.get scratch_key) sc order (Array.length order)

let original_completion sc =
  let s = Domain.DLS.get scratch_key in
  let n = Array.length sc.insns in
  if n > Array.length s.identity then
    s.identity <- Array.init (max n (2 * Array.length s.identity)) Fun.id;
  completion_of s sc s.identity n

(** [run model insns] simulates issuing [insns] in the given order. *)
let run model insns =
  simulate (decode model insns) (Array.init (Array.length insns) Fun.id)

let cycles model insns = original_completion (decode model insns)

let stalls model insns = (run model insns).stall_cycles
