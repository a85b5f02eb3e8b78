(** Reservation-table scheduling.

    The paper's §1 describes the refined alternative to timing heuristics:
    "A more refined form of scheduling uses an explicit resource
    reservation table ... This latter approach always inserts the 'highest
    priority' instruction into the earliest empty slots of the table; that
    is, an instruction is an aggregate structure represented by blocks of
    busy cycles for one or more function units, and scheduling involves
    pattern matching these blocks into a partially-filled reservation
    table as well as considering operand dependencies."

    Implementation: nodes are taken highest-priority-first among those
    whose parents are all placed (priority = a static heuristic value,
    default max total delay to a leaf).  Each node is placed at the
    earliest cycle that (a) satisfies every placed parent's arc latency,
    (b) finds its function-unit usage pattern free in the table, and
    (c) finds the single shared issue slot free.  The resulting cycle
    assignment is the schedule; unlike list scheduling, a long
    non-pipelined operation reserves its unit for its whole duration, so
    structural hazards are decided exactly rather than by the busy-time
    heuristic. *)

open Ds_machine
open Ds_heur

type t = {
  order : int array;        (* nodes in issue-cycle order *)
  start_cycle : int array;  (* per node *)
  makespan : int;           (* completion cycle *)
}

let run ?(priority = Heuristic.Max_delay_to_leaf) dag =
  let n = Ds_dag.Dag.length dag in
  let model = Ds_dag.Dag.model dag in
  let annot =
    Static_pass.compute_for [ priority ] dag
  in
  let st = Dyn_state.create dag Dyn_state.Forward in
  let value i = Evaluate.value priority ~annot ~st i in
  let table = Reservation.create () in
  let issue_slots = Ds_util.Bitset.create () in
  let placed = Array.make n false in
  let start_cycle = Array.make n 0 in
  let unplaced_parents = Array.init n (Ds_dag.Dag.n_parents dag) in
  let makespan = ref 0 in
  for _ = 1 to n do
    (* highest-priority node whose parents are all placed; original order
       breaks ties *)
    let best = ref (-1) in
    for i = n - 1 downto 0 do
      if (not placed.(i)) && unplaced_parents.(i) = 0 then
        if !best < 0 || value i >= value !best then best := i
    done;
    let i = !best in
    assert (i >= 0);
    let insn = Ds_dag.Dag.insn dag i in
    let ready =
      Ds_dag.Dag.fold_pred dag i
        (fun acc src latency _ -> max acc (start_cycle.(src) + latency))
        0
    in
    let usage = Reservation.usage_of model insn in
    (* earliest cycle where both the unit pattern and the issue slot fit *)
    let rec place c =
      if Ds_util.Bitset.mem issue_slots c then place (c + 1)
      else if not (Reservation.fits table usage ~at:c) then place (c + 1)
      else c
    in
    let at = place ready in
    Reservation.mark table usage ~at;
    Ds_util.Bitset.set issue_slots at;
    placed.(i) <- true;
    start_cycle.(i) <- at;
    makespan := max !makespan (at + model.Latency.exec_time insn);
    Ds_dag.Dag.iter_succ dag i (fun dst _ _ ->
        unplaced_parents.(dst) <- unplaced_parents.(dst) - 1)
  done;
  let order = Array.init n (fun i -> i) in
  Array.sort
    (fun a b ->
      let c = Int.compare start_cycle.(a) start_cycle.(b) in
      if c <> 0 then c else Int.compare a b)
    order;
  { order; start_cycle; makespan = !makespan }

(** The cycle assignment as an ordinary schedule (for verification and
    pipeline scoring). *)
let schedule dag t = Schedule.make dag t.order
