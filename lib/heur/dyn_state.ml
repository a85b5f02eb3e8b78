(** Scheduler state consulted by the dynamic (column-`v`) heuristics.

    Maintains exactly the bookkeeping the paper describes: an
    [#unscheduled_parents] counter per node (for the uncovering
    heuristics), per-node earliest execution times updated when a parent is
    scheduled, the most recently scheduled node (for interlock-with-
    previous, alternate-type and birthing), and non-pipelined FP unit free
    times (for the busy-times heuristic).

    A backward scheduling pass mirrors the roles: readiness means all
    *children* scheduled, and earliest execution times propagate through
    parent arcs in reversed time. *)

open Ds_machine

type direction = Forward | Backward

type t = {
  dag : Ds_dag.Dag.t;
  direction : direction;
  mutable time : int;                 (* current scheduling cycle *)
  scheduled : bool array;
  sched_time : int array;
  unscheduled_parents : int array;
  unscheduled_children : int array;
  earliest_exec : int array;
  mutable last : int option;          (* most recently scheduled node *)
  unit_free : int array;              (* per Funit, next free cycle *)
  mutable n_scheduled : int;
}

let create dag direction =
  let n = Ds_dag.Dag.length dag in
  {
    dag;
    direction;
    time = 0;
    scheduled = Array.make n false;
    sched_time = Array.make n 0;
    unscheduled_parents = Array.init n (Ds_dag.Dag.n_parents dag);
    unscheduled_children = Array.init n (Ds_dag.Dag.n_children dag);
    earliest_exec = Array.make n 0;
    last = None;
    unit_free = Array.make Funit.count 0;
    n_scheduled = 0;
  }

(** Seed the state with operation latencies inherited from the immediately
    preceding block (the paper's §2 "pseudo-nodes and arcs to represent
    operation latencies inherited from immediately preceding blocks"):
    [pending] maps a resource to the cycle, relative to this block's first
    issue slot, at which its value becomes available; [unit_busy] gives
    residual busy cycles per function unit.  Nodes that use a pending
    resource cannot execute before it arrives. *)
let seed t ~pending ~unit_busy =
  Array.iteri
    (fun u residual ->
      if residual > 0 then t.unit_free.(u) <- max t.unit_free.(u) residual)
    unit_busy;
  if pending <> [] then begin
    let uses = Ds_isa.Insn.Scan.create () in
    for i = 0 to Ds_dag.Dag.length t.dag - 1 do
      Ds_isa.Insn.scan_uses uses (Ds_dag.Dag.insn t.dag i);
      List.iter
        (fun (res, ready_at) ->
          if ready_at > 0 then
            for u = 0 to Ds_isa.Insn.Scan.len uses - 1 do
              if Ds_isa.Resource.equal res (Ds_isa.Insn.Scan.res uses u) then
                t.earliest_exec.(i) <- max t.earliest_exec.(i) ready_at
            done)
        pending
    done
  end

(** A node joins the candidate list when all its predecessors (in the
    scheduling direction) are scheduled. *)
let available t i =
  (not t.scheduled.(i))
  &&
  match t.direction with
  | Forward -> t.unscheduled_parents.(i) = 0
  | Backward -> t.unscheduled_children.(i) = 0

(** Ready: available and past its earliest execution time. *)
let ready t i = available t i && t.earliest_exec.(i) <= t.time

let complete t = t.n_scheduled = Ds_dag.Dag.length t.dag

(** Fold [f acc peer latency kind] over the arcs leaving [i] in the
    scheduling direction: [peer] is a child when scheduling forward and a
    parent when scheduling backward. *)
let fold_successors t i f acc =
  match t.direction with
  | Forward -> Ds_dag.Dag.fold_succ t.dag i f acc
  | Backward -> Ds_dag.Dag.fold_pred t.dag i f acc

(** Record that [i] issues at cycle [at]: update the uncovering counters
    and propagate earliest execution times along the arcs the paper
    describes ("each child has its earliest execution time updated by
    taking the maximum of the previous value and the current time plus the
    arc delay"). *)
let schedule t i ~at =
  assert (not t.scheduled.(i));
  t.scheduled.(i) <- true;
  t.sched_time.(i) <- at;
  t.n_scheduled <- t.n_scheduled + 1;
  t.last <- Some i;
  let unscheduled =
    match t.direction with
    | Forward -> t.unscheduled_parents
    | Backward -> t.unscheduled_children
  in
  fold_successors t i
    (fun () peer latency _ ->
      unscheduled.(peer) <- unscheduled.(peer) - 1;
      t.earliest_exec.(peer) <- max t.earliest_exec.(peer) (at + latency))
    ();
  let insn = Ds_dag.Dag.insn t.dag i in
  let model = Ds_dag.Dag.model t.dag in
  let busy = model.Latency.fp_busy insn in
  if busy > 0 then begin
    let u = Funit.index (Funit.of_insn insn) in
    t.unit_free.(u) <- max t.unit_free.(u) (at + busy)
  end

let unscheduled_preds_of_peer t peer =
  match t.direction with
  | Forward -> t.unscheduled_parents.(peer)
  | Backward -> t.unscheduled_children.(peer)
