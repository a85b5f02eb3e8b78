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

    It runs in two steps.  [scan] reads the block once, in the manner of
    the paper's table-building construction: each resource gets a dense
    block-local id, and the instructions' definitions, uses and per-insn
    costs land in int arrays.  [simulate] then replays any ordering of
    the block over that scan, keeping the "record of the last definition
    of a resource and the set of current uses" (§2) as per-id arrays and
    pooled reader chains.  Readers stay a chain rather than a maximum
    because the WAR delay depends on the reading instruction. *)

open Ds_isa

type result = {
  issue_cycle : int array;   (* per instruction, in sequence order *)
  completion : int;          (* cycle after the last result is ready *)
  stall_cycles : int;        (* issue-slot bubbles from interlocks *)
}

type scratch = {
  ids : Resource.Ids.t;        (* persists across blocks *)
  buf : Insn.Scan.buf;
  (* scan: [ids] id -> block-local id, valid iff stamp = epoch *)
  mutable epoch : int;
  mutable stamp : int array;
  mutable local : int array;
  mutable n_local : int;
  mutable local_res : Resource.t array;
  mutable def_buf : int array;
  mutable n_defs : int;
  mutable use_buf : int array;
  mutable n_uses : int;
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
}

let fresh_scratch () =
  { ids = Resource.Ids.create ();
    buf = Insn.Scan.create ();
    epoch = 0;
    stamp = Array.make 128 (-1);
    local = Array.make 128 0;
    n_local = 0;
    local_res = Array.make 64 Resource.Ctrl;
    def_buf = Array.make 64 0;
    n_defs = 0;
    use_buf = Array.make 64 0;
    n_uses = 0;
    writer = [||];
    writer_issue = [||];
    writer_def_pos = [||];
    readers = [||];
    slot_insn = [||];
    slot_issue = [||];
    slot_next = [||];
    unit_free = Array.make Funit.count 0;
    issue_buf = [||] }

let scratch_key = Domain.DLS.new_key fresh_scratch

let grow a len fill =
  let grown = Array.make (max len (2 * Array.length a)) fill in
  Array.blit a 0 grown 0 (Array.length a);
  grown

(** One block, read once: resources as dense block-local ids (the
    resource of id [r] is [res.(r)]); instruction [i] defines
    [def_ids.(def_start.(i)) .. def_ids.(def_start.(i+1) - 1)] in
    definition order and uses [use_ids] likewise, where a use's operand
    position is its offset from [use_start.(i)]. *)
type scan = {
  model : Latency.t;
  insns : Insn.t array;
  res : Resource.t array;
  def_start : int array;
  def_ids : int array;
  use_start : int array;
  use_ids : int array;
  exec : int array;
  busy : int array;      (* fp_busy *)
  unit : int array;      (* Funit index *)
}

let local_id s res =
  let g = Resource.Ids.id s.ids res in
  if g >= Array.length s.stamp then begin
    s.stamp <- grow s.stamp (g + 1) (-1);
    s.local <- grow s.local (g + 1) 0
  end;
  if s.stamp.(g) = s.epoch then s.local.(g)
  else begin
    let l = s.n_local in
    s.n_local <- l + 1;
    s.stamp.(g) <- s.epoch;
    s.local.(g) <- l;
    if l >= Array.length s.local_res then
      s.local_res <- grow s.local_res (l + 1) Resource.Ctrl;
    s.local_res.(l) <- res;
    l
  end

let push_def s id =
  if s.n_defs >= Array.length s.def_buf then
    s.def_buf <- grow s.def_buf (s.n_defs + 1) 0;
  s.def_buf.(s.n_defs) <- id;
  s.n_defs <- s.n_defs + 1

let push_use s id =
  if s.n_uses >= Array.length s.use_buf then
    s.use_buf <- grow s.use_buf (s.n_uses + 1) 0;
  s.use_buf.(s.n_uses) <- id;
  s.n_uses <- s.n_uses + 1

let scan (model : Latency.t) insns =
  let s = Domain.DLS.get scratch_key in
  s.epoch <- s.epoch + 1;
  s.n_local <- 0;
  s.n_defs <- 0;
  s.n_uses <- 0;
  let n = Array.length insns in
  let def_start = Array.make (n + 1) 0 and use_start = Array.make (n + 1) 0 in
  let exec = Array.make n 0 and busy = Array.make n 0 and unit = Array.make n 0 in
  let b = s.buf in
  for i = 0 to n - 1 do
    let insn = insns.(i) in
    def_start.(i) <- s.n_defs;
    Insn.scan_defs b insn;
    for j = 0 to Insn.Scan.len b - 1 do
      push_def s (local_id s (Insn.Scan.res b j))
    done;
    use_start.(i) <- s.n_uses;
    Insn.scan_uses b insn;
    for j = 0 to Insn.Scan.len b - 1 do
      push_use s (local_id s (Insn.Scan.res b j))
    done;
    exec.(i) <- model.Latency.exec_time insn;
    busy.(i) <- model.Latency.fp_busy insn;
    unit.(i) <- Funit.index (Funit.of_insn insn)
  done;
  def_start.(n) <- s.n_defs;
  use_start.(n) <- s.n_uses;
  { model; insns;
    res = Array.sub s.local_res 0 s.n_local;
    def_start;
    def_ids = Array.sub s.def_buf 0 s.n_defs;
    use_start;
    use_ids = Array.sub s.use_buf 0 s.n_uses;
    exec; busy; unit }

let reset_state s sc =
  let k = Array.length sc.res in
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

(* Issue [order] (indices into the scanned block) writing each issue
   cycle into [issue].  Each instruction issues no earlier than the slot
   after its predecessor, after every RAW producer's result, after every
   current reader of a resource it redefines (WAR) and its previous
   writer (WAW), and once its non-pipelined unit is free. *)
let run_into sc order issue =
  let s = Domain.DLS.get scratch_key in
  reset_state s sc;
  let n_readers = Array.length sc.use_ids in
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
  for p = 0 to Array.length order - 1 do
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

let simulate sc order = run_into sc order (Array.make (Array.length order) 0)

let completion sc order =
  let s = Domain.DLS.get scratch_key in
  let n = Array.length order in
  if n > Array.length s.issue_buf then
    s.issue_buf <- Array.make (max n (2 * Array.length s.issue_buf)) 0;
  (run_into sc order s.issue_buf).completion

(** [run model insns] simulates issuing [insns] in the given order. *)
let run model insns =
  simulate (scan model insns) (Array.init (Array.length insns) Fun.id)

let cycles model insns = (run model insns).completion

let stalls model insns = (run model insns).stall_cycles
