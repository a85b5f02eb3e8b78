(** Branch-and-bound optimal scheduling for small basic blocks.

    The paper's planned extension: "We plan to extend this work by
    determining if an optimal branch-and-bound scheduler would benefit
    performance for small basic blocks" (§7).  This module implements that
    scheduler so the bench can answer the question: it searches the space
    of issue orders for a single in-order issue-1 machine with the DAG's
    arc latencies and non-pipelined FP unit busy times, and returns a
    provably optimal schedule (or the best found within a node budget).

    Branching: from a partial schedule at time [t], any *available* node
    (all parents issued) may be chosen next; it issues at
    [max t (earliest_exec node)] — deliberately idling is subsumed by
    picking a not-yet-ready node.  Bounding: completion is at least

    - the completion of everything already issued,
    - [max (t, ee j) + remaining_critical j] for every unscheduled [j]
      (its earliest execution time can only grow), and
    - [t + #unscheduled] (one issue per cycle).

    Both bounds are admissible, so a pruned branch can never hide a better
    schedule; [optimal] is true whenever the search ran to exhaustion. *)

open Ds_heur
open Ds_machine

type result = {
  schedule : Schedule.t;
  cycles : int;
  optimal : bool;          (* exhaustive search completed within budget *)
  nodes_explored : int;
}

(* remaining critical path from each node: exec + arc-weighted longest
   path to a leaf — exactly [Annot.max_delay_to_leaf] *)
let remaining_critical dag =
  let annot = Static_pass.compute ~requirements:{ Static_pass.descendants = false; registers = false } dag in
  annot.Annot.max_delay_to_leaf

let default_budget = 300_000

(** Completion time of an issue order under the search's machine model
    (DAG arc latencies + non-pipelined unit busy times, one issue per
    cycle).  Used to seed the incumbent and to compare heuristic
    schedules against the optimum in the same cost model. *)
let evaluate dag order =
  let model = Ds_dag.Dag.model dag in
  let n = Ds_dag.Dag.length dag in
  let earliest = Array.make n 0 in
  let unit_free = Array.make Funit.count 0 in
  let time = ref 0 and completion = ref 0 in
  Array.iter
    (fun i ->
      let insn = Ds_dag.Dag.insn dag i in
      let busy = model.Latency.fp_busy insn in
      let at = max !time earliest.(i) in
      let at =
        if busy > 0 then max at unit_free.(Funit.index (Funit.of_insn insn))
        else at
      in
      Ds_dag.Dag.iter_succ dag i (fun dst latency _ ->
          earliest.(dst) <- max earliest.(dst) (at + latency));
      if busy > 0 then unit_free.(Funit.index (Funit.of_insn insn)) <- at + busy;
      time := at + 1;
      completion := max !completion (at + model.Latency.exec_time insn))
    order;
  !completion

(** [run ?budget dag] finds a minimum-completion schedule of [dag].
    Blocks beyond ~20 instructions explode combinatorially; the budget
    bounds the search and [optimal] reports whether it was exhaustive. *)
let run ?(budget = default_budget) dag =
  let n = Ds_dag.Dag.length dag in
  if n = 0 then
    { schedule = Schedule.identity dag; cycles = 0; optimal = true;
      nodes_explored = 0 }
  else begin
    let model = Ds_dag.Dag.model dag in
    let exec = Array.init n (fun i -> model.Latency.exec_time (Ds_dag.Dag.insn dag i)) in
    let busy = Array.init n (fun i -> model.Latency.fp_busy (Ds_dag.Dag.insn dag i)) in
    let unit = Array.init n (fun i -> Funit.index (Funit.of_insn (Ds_dag.Dag.insn dag i))) in
    let critical = remaining_critical dag in
    (* greedy seed: a decent incumbent tightens pruning from the start *)
    let seed_order =
      Engine.schedule
        { Engine.direction = Dyn_state.Forward; mode = Engine.Winnowing;
          keys =
            [ Engine.key Heuristic.Earliest_execution_time;
              Engine.key Heuristic.Max_delay_to_leaf ] }
        dag
    in
    let best_order = ref (Array.copy seed_order) in
    let best_cycles = ref (evaluate dag seed_order) in
    let explored = ref 0 in
    let exhausted = ref true in
    (* mutable search state, restored on backtrack *)
    let scheduled = Array.make n false in
    let unscheduled_parents = Array.init n (Ds_dag.Dag.n_parents dag) in
    let earliest = Array.make n 0 in
    let order = Array.make n 0 in
    let unit_free = Array.make Funit.count 0 in
    let rec search depth time completion =
      if !explored > budget then exhausted := false
      else if depth = n then begin
        if completion < !best_cycles then begin
          best_cycles := completion;
          best_order := Array.copy order
        end
      end
      else begin
        (* admissible lower bounds *)
        let lb = ref (max completion (time + (n - depth))) in
        for j = 0 to n - 1 do
          if not scheduled.(j) then
            lb := max !lb (max time earliest.(j) + critical.(j))
        done;
        if !lb < !best_cycles then
          for i = 0 to n - 1 do
            if (not scheduled.(i)) && unscheduled_parents.(i) = 0
               && !explored <= budget
            then begin
              incr explored;
              let at = max time earliest.(i) in
              let at =
                if busy.(i) > 0 then max at unit_free.(unit.(i)) else at
              in
              (* apply *)
              scheduled.(i) <- true;
              order.(depth) <- i;
              let saved_earliest = ref [] in
              Ds_dag.Dag.iter_succ dag i (fun dst latency _ ->
                  unscheduled_parents.(dst) <- unscheduled_parents.(dst) - 1;
                  saved_earliest := (dst, earliest.(dst)) :: !saved_earliest;
                  earliest.(dst) <- max earliest.(dst) (at + latency));
              let saved_unit = unit_free.(unit.(i)) in
              if busy.(i) > 0 then unit_free.(unit.(i)) <- at + busy.(i);
              search (depth + 1) (at + 1) (max completion (at + exec.(i)));
              (* undo *)
              if busy.(i) > 0 then unit_free.(unit.(i)) <- saved_unit;
              Ds_dag.Dag.iter_succ dag i (fun dst _ _ ->
                  unscheduled_parents.(dst) <- unscheduled_parents.(dst) + 1);
              List.iter (fun (j, e) -> earliest.(j) <- e) !saved_earliest;
              scheduled.(i) <- false
            end
          done
      end
    in
    search 0 0 0;
    {
      schedule = Schedule.make dag !best_order;
      cycles = !best_cycles;
      optimal = !exhausted;
      nodes_explored = !explored;
    }
  end
