(** In-order pipeline simulator.

    Scores an instruction ordering under a latency model by computing, for
    each instruction, its issue cycle given interlocks on data dependencies
    and busy non-pipelined FP units, issuing up to [width] instructions a
    cycle with at most one per function unit (single issue by default).
    This is the quality metric used to compare scheduling algorithms: the
    paper compares construction/heuristic *cost*; we additionally report
    the schedules' simulated cycle counts so examples and ablations can
    show who wins.

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
    instruction.  The record is one machine state per domain, which
    issues one instruction at a time: a replay logs nothing, and [issue]
    logs what it overwrites so that [undo] can take issues back. *)

open Ds_isa

type result = {
  issue_cycle : int array;   (* per instruction, in sequence order *)
  completion : int;          (* cycle after the last result is ready *)
  stall_cycles : int;        (* issue-slot bubbles from interlocks *)
}

(* One block, read once (layout in pipeline.mli).  The domain's decode
   reuses its arrays from block to block. *)
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

(* The domain's scratch: its decode and its machine state, which
   [issue] logs to [trail], one frame per instruction, for [undo]. *)
type scratch = {
  ids : Resource.Ids.t;        (* persists across blocks, up to a bound *)
  buf : Insn.Scan.buf;
  (* decode: [ids] id -> block-local id, valid iff stamp = epoch *)
  mutable epoch : int;
  mutable stamp : int array;
  mutable local : int array;
  dec : scan;
  (* the machine state, issuing the decode [sc] *)
  mutable sc : scan;
  mutable width : int;
  mutable writer : int array;          (* (insn lsl 8) lor def pos, or -1 *)
  mutable writer_issue : int array;
  mutable readers : int array;         (* reader chain head slot, or -1 *)
  mutable slot_insn : int array;
  mutable slot_issue : int array;
  mutable slot_next : int array;
  mutable slots : int;                 (* reader slots in use *)
  unit_free : int array;
  unit_last : int array;               (* cycle the unit last issued in *)
  mutable cycle : int;                 (* the current issue cycle *)
  mutable left : int;                  (* its slots left *)
  mutable next : int;                  (* first cycle open to the next insn *)
  mutable stalls : int;
  mutable completion : int;
  mutable trail : int array;
  mutable top : int;
}

type state = scratch

(* Decode generations are unique across the process, so a generation
   recorded on one domain never matches another domain's decode. *)
let next_gen = Atomic.make 1

let fresh_scratch () =
  let dec =
    { gen = 0; model = Latency.simple_risc; insns = [||]; n_res = 0;
      res = Array.make 64 Resource.Ctrl;
      def_start = Array.make 64 0; def_ids = Array.make 64 0;
      use_start = Array.make 64 0; use_ids = Array.make 64 0;
      exec = Array.make 64 0; busy = Array.make 64 0;
      unit = Array.make 64 0 }
  in
  { ids = Resource.Ids.create (); buf = Insn.Scan.create ();
    epoch = 0; stamp = Array.make 128 (-1); local = Array.make 128 0;
    dec; sc = dec; width = 1;
    writer = [||]; writer_issue = [||]; readers = [||];
    slot_insn = [||]; slot_issue = [||]; slot_next = [||]; slots = 0;
    unit_free = Array.make Funit.count 0;
    unit_last = Array.make Funit.count (-1);
    cycle = -1; left = 0; next = 0; stalls = 0; completion = 0;
    trail = [||]; top = 0 }

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

(* Empty the state for issuing [sc] at [width]: nothing issued yet. *)
let reset s sc ~width =
  let k = sc.n_res in
  if k > Array.length s.writer then begin
    let len = max k (2 * Array.length s.writer) in
    s.writer <- Array.make len (-1);
    s.writer_issue <- Array.make len 0;
    s.readers <- Array.make len (-1)
  end;
  let n_readers = sc.use_start.(Array.length sc.insns) in
  if n_readers > Array.length s.slot_insn then begin
    let len = max n_readers (2 * Array.length s.slot_insn) in
    s.slot_insn <- Array.make len 0;
    s.slot_issue <- Array.make len 0;
    s.slot_next <- Array.make len 0
  end;
  Array.fill s.writer 0 k (-1);
  Array.fill s.readers 0 k (-1);
  Array.fill s.unit_free 0 Funit.count 0;
  Array.fill s.unit_last 0 Funit.count (-1);
  s.sc <- sc;
  s.width <- width;
  s.slots <- 0;
  s.cycle <- -1;
  s.left <- 0;
  s.next <- 0;
  s.stalls <- 0;
  s.completion <- 0;
  s.top <- 0

(* Issue decoded instruction [i] next and return its cycle.  It issues
   no earlier than its predecessor's cycle while that cycle has one of
   its [width] slots left, and the cycle after it otherwise; after every
   RAW producer's result, after every current reader of a resource it
   redefines (WAR) and its previous writer (WAW), and once its
   non-pipelined unit is free.  A unit issues at most once a cycle, so
   an instruction whose unit already issued in the current cycle takes
   the next one.  At width 1 the first rule alone is "the slot after
   the predecessor".  Logs nothing and allocates nothing. *)
let step s i =
  let sc = s.sc in
  let model = sc.model and insns = sc.insns in
  let writer = s.writer and writer_issue = s.writer_issue in
  let readers = s.readers in
  let slot_insn = s.slot_insn and slot_issue = s.slot_issue in
  let slot_next = s.slot_next in
  let child = insns.(i) in
  let min_issue = s.next in
  let earliest = ref min_issue in
  let u0 = sc.use_start.(i) and u1 = sc.use_start.(i + 1) in
  let d0 = sc.def_start.(i) and d1 = sc.def_start.(i + 1) in
  (* RAW: every used resource must have been produced *)
  for u = u0 to u1 - 1 do
    let id = sc.use_ids.(u) in
    let w = writer.(id) in
    if w >= 0 then begin
      let lat =
        model.Latency.raw ~parent:insns.(w lsr 8) ~def_pos:(w land 0xff)
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
      let lat = model.Latency.war ~parent:insns.(slot_insn.(!r)) ~res ~child in
      earliest := Int.max !earliest (slot_issue.(!r) + lat);
      r := slot_next.(!r)
    done;
    let w = writer.(id) in
    if w >= 0 then begin
      let lat = model.Latency.waw ~parent:insns.(w lsr 8) ~res ~child in
      earliest := Int.max !earliest (writer_issue.(id) + lat)
    end
  done;
  (* structural hazard: non-pipelined FP unit still busy *)
  let busy = sc.busy.(i) and u = sc.unit.(i) in
  if busy > 0 then earliest := Int.max !earliest s.unit_free.(u);
  let t = !earliest in
  let t = if t = s.cycle && s.unit_last.(u) = t then t + 1 else t in
  if t > s.cycle then begin
    s.cycle <- t;
    s.left <- s.width - 1
  end
  else s.left <- s.left - 1;
  s.unit_last.(u) <- t;
  s.next <- (if s.left > 0 then t else t + 1);
  s.stalls <- s.stalls + (t - min_issue);
  if busy > 0 then s.unit_free.(u) <- t + busy;
  (* record definitions, then uses *)
  for d = d0 to d1 - 1 do
    let id = sc.def_ids.(d) in
    writer.(id) <- (i lsl 8) lor (d - d0);
    writer_issue.(id) <- t;
    readers.(id) <- -1
  done;
  for u = u0 to u1 - 1 do
    let id = sc.use_ids.(u) in
    let slot = s.slots in
    s.slots <- slot + 1;
    slot_insn.(slot) <- i;
    slot_issue.(slot) <- t;
    slot_next.(slot) <- readers.(id);
    readers.(id) <- slot
  done;
  s.completion <- Int.max s.completion (t + sc.exec.(i));
  t

(* A trail frame holds what [step] overwrites, saved before it runs:
   the cycle, slots left, next, stalls and completion; the unit's last
   issue and free cycles; per definition the writer and its issue cycle
   and the reader chain head; last the instruction, from which [pop]
   reads the frame's length.  Uses need no entry: a use's slot keeps
   the chain head it replaced in [slot_next]. *)
let frame_scalars = 7

let push s i =
  let sc = s.sc and tr = s.trail and k = s.top in
  let d0 = sc.def_start.(i) and d1 = sc.def_start.(i + 1) and u = sc.unit.(i) in
  tr.(k) <- s.cycle;
  tr.(k + 1) <- s.left;
  tr.(k + 2) <- s.next;
  tr.(k + 3) <- s.stalls;
  tr.(k + 4) <- s.completion;
  tr.(k + 5) <- s.unit_last.(u);
  tr.(k + 6) <- s.unit_free.(u);
  for d = d0 to d1 - 1 do
    let id = sc.def_ids.(d) and at = k + frame_scalars + (3 * (d - d0)) in
    tr.(at) <- s.writer.(id);
    tr.(at + 1) <- s.writer_issue.(id);
    tr.(at + 2) <- s.readers.(id)
  done;
  let k = k + frame_scalars + (3 * (d1 - d0)) in
  tr.(k) <- i;
  s.top <- k + 1

(* Undo the last frame's instruction: its uses, last first, then the
   saved values (all taken before any was overwritten, so their order
   does not matter). *)
let pop s =
  let sc = s.sc and tr = s.trail in
  let i = tr.(s.top - 1) in
  let d0 = sc.def_start.(i) and d1 = sc.def_start.(i + 1) and u = sc.unit.(i) in
  for v = sc.use_start.(i + 1) - 1 downto sc.use_start.(i) do
    s.slots <- s.slots - 1;
    s.readers.(sc.use_ids.(v)) <- s.slot_next.(s.slots)
  done;
  let k = s.top - 1 - (3 * (d1 - d0)) - frame_scalars in
  for d = d0 to d1 - 1 do
    let id = sc.def_ids.(d) and at = k + frame_scalars + (3 * (d - d0)) in
    s.writer.(id) <- tr.(at);
    s.writer_issue.(id) <- tr.(at + 1);
    s.readers.(id) <- tr.(at + 2)
  done;
  s.cycle <- tr.(k);
  s.left <- tr.(k + 1);
  s.next <- tr.(k + 2);
  s.stalls <- tr.(k + 3);
  s.completion <- tr.(k + 4);
  s.unit_last.(u) <- tr.(k + 5);
  s.unit_free.(u) <- tr.(k + 6);
  s.top <- k

let start sc =
  let s = Domain.DLS.get scratch_key in
  reset s sc ~width:1;
  let n = Array.length sc.insns in
  (* room for a frame per instruction *)
  let len = (n * (frame_scalars + 1)) + (3 * sc.def_start.(n)) in
  if len > Array.length s.trail then
    s.trail <- Array.make (max len (2 * Array.length s.trail)) 0;
  s

let issue s i = push s i; step s i

let mark s = s.top

let undo s m =
  while s.top > m do
    pop s
  done

let completed s = s.completion
let stalled s = s.stalls
let next_issue s = s.next

(* A full replay of [order] (indices into the decoded block). *)
let replay ~width sc order =
  let s = Domain.DLS.get scratch_key in
  reset s sc ~width;
  let issue = Array.make (Array.length order) 0 in
  for p = 0 to Array.length order - 1 do
    issue.(p) <- step s order.(p)
  done;
  { issue_cycle = issue; completion = s.completion; stall_cycles = s.stalls }

let simulate sc order = replay ~width:1 sc order

(* A replay that keeps no issue cycles: the state holds the outcome. *)
let play sc order =
  let s = Domain.DLS.get scratch_key in
  reset s sc ~width:1;
  for p = 0 to Array.length order - 1 do
    ignore (step s order.(p))
  done;
  s

(* the original order's completion, likewise *)
let original_completion_at ~width sc =
  let s = Domain.DLS.get scratch_key in
  reset s sc ~width;
  for i = 0 to Array.length sc.insns - 1 do
    ignore (step s i)
  done;
  s.completion

let original_completion sc = original_completion_at ~width:1 sc

let run ?(width = 1) model insns =
  assert (width >= 1);
  replay ~width (decode model insns) (Array.init (Array.length insns) Fun.id)

let cycles ?(width = 1) model insns =
  assert (width >= 1);
  original_completion_at ~width (decode model insns)

let stalls model insns = (run model insns).stall_cycles

(* In-order issue makes [issue_cycle] non-decreasing, so each cycle's
   issues are one run of equal entries. *)
let dual_issue_rate r =
  let a = r.issue_cycle in
  let cycles = ref 0 and multi = ref 0 in
  Array.iteri
    (fun i c ->
      if i = 0 || c <> a.(i - 1) then incr cycles
      else if i < 2 || c <> a.(i - 2) then incr multi)
    a;
  if !cycles = 0 then 0.0 else float_of_int !multi /. float_of_int !cycles
