(** Branch-and-bound optimal scheduling for small basic blocks.

    The paper's planned extension: "We plan to extend this work by
    determining if an optimal branch-and-bound scheduler would benefit
    performance for small basic blocks" (§7).  The search tries every
    order the DAG allows (any node whose parents have issued may issue
    next), timing it in the pipeline's machine state — the cost model of
    [Schedule.cycles] — and undoing issues on backtrack.  The incumbent
    starts as the best of a greedy EET/max-delay order and the six
    published orders, so the result is never worse than any of them.

    Bounds read [S], the block's table-forward DAG under symbolic
    disambiguation without branch anchoring.  Claim: for every arc
    [p -> j] of latency [l] in [S], every legal order issues [j] at least
    [l] cycles after [p].  Proof: the arc joins [p < j] that touch one
    decode resource [r], one of them defining it — RAW from [r]'s last
    definition before [j], WAR from each use of [r] since then to [j]'s
    definition, or WAW from that definition — with a pair's arcs
    coalesced to the largest latency.  Every builder under every
    strategy orders two accesses to one resource when either defines it
    (an expression aliases itself under all of them), so a legal order
    keeps [r]'s definitions, and each use between the same two, in
    program order.  At [j]'s issue the pipeline's record of [r] is then
    the program-order one: the same last writer and definition position,
    every use since on the reader chain.  The pipeline waits for the
    latencies the same model gives for the same instructions and
    positions.  (Other strategies' may-alias arcs join distinct memory
    expressions the pipeline does not wait on: hence [S], not the search
    DAG.)

    With [k] instructions left, [next] the first open cycle and [c] the
    completion so far, the final completion is at least [c];
    [next + k - 1 + e], [e] the least execution time, as single issue
    spreads the [k] over distinct cycles from [next]; and, for each
    unissued [j], [h j + b j], where [b j] is [S]'s max delay from [j] to
    a leaf and [h j] the largest of [next] and [t + l] over [j]'s
    [S]-parents issued at [t] (arc latency [l]): by the claim [j] issues
    no earlier than [h j], and its [S]-descendants, all unissued, issue
    after it along the arcs.  A pruned branch never hides a better
    schedule, so [optimal] holds whenever the search ran to exhaustion. *)

open Ds_heur
open Ds_machine

type result = {
  schedule : Schedule.t;
  cycles : int;
  optimal : bool;          (* exhaustive search completed within budget *)
  nodes_explored : int;
}

let default_budget = 300_000

let greedy_seed =
  { Engine.direction = Dyn_state.Forward; mode = Engine.Winnowing;
    keys =
      [ Engine.key Heuristic.Earliest_execution_time;
        Engine.key Heuristic.Max_delay_to_leaf ] }

(** [run ?budget dag] finds a minimum-completion schedule of [dag].
    Blocks beyond ~20 instructions explode combinatorially; the budget
    bounds the search and [optimal] reports whether it was exhaustive. *)
let run ?(budget = default_budget) dag =
  let n = Ds_dag.Dag.length dag in
  let best_order = ref [||] and best_cycles = ref max_int in
  List.iter
    (fun order ->
      let c = Schedule.cycles (Schedule.make dag order) in
      if c < !best_cycles then begin
        best_cycles := c;
        best_order := order
      end)
    (Engine.schedule greedy_seed dag
    :: List.map
         (fun spec -> (Published.run_on_dag spec dag).Schedule.order)
         Published.all);
  let sym =
    Ds_dag.Build_table_fwd.build
      { Ds_dag.Opts.model = Ds_dag.Dag.model dag;
        strategy = Ds_dag.Disambiguate.Symbolic; anchor_branch = false }
      { Ds_cfg.Block.id = 0; insns = Ds_dag.Dag.insns dag }
  in
  let critical =
    (Static_pass.compute_for [ Heuristic.Max_delay_to_leaf ] sym)
      .Annot.max_delay_to_leaf
  in
  (* [sym]'s build left its decode current *)
  let sc = Ds_dag.Dag.decoded sym in
  let min_exec = Array.fold_left Int.min max_int (Array.sub sc.Pipeline.exec 0 n) in
  let st = Pipeline.start sc in
  let explored = ref 0 in
  let exhausted = ref true in
  let scheduled = Array.make n false in
  let issued_at = Array.make n 0 in
  let unscheduled_parents = Array.init n (Ds_dag.Dag.n_parents dag) in
  let order = Array.make n 0 in
  let head h p latency _ =
    if scheduled.(p) then Int.max h (issued_at.(p) + latency) else h
  in
  let release dst _ _ =
    unscheduled_parents.(dst) <- unscheduled_parents.(dst) - 1
  in
  let retain dst _ _ =
    unscheduled_parents.(dst) <- unscheduled_parents.(dst) + 1
  in
  let rec search depth =
    if !explored > budget then exhausted := false
    else if depth = n then begin
      let c = Pipeline.completed st in
      if c < !best_cycles then begin
        best_cycles := c;
        best_order := Array.copy order
      end
    end
    else begin
      let next = Pipeline.next_issue st in
      let lb =
        ref (Int.max (Pipeline.completed st) (next + n - depth - 1 + min_exec))
      in
      for j = 0 to n - 1 do
        if not scheduled.(j) then
          lb := Int.max !lb (Ds_dag.Dag.fold_pred sym j head next + critical.(j))
      done;
      if !lb < !best_cycles then
        for i = 0 to n - 1 do
          if (not scheduled.(i)) && unscheduled_parents.(i) = 0
             && !explored <= budget
          then begin
            incr explored;
            let m = Pipeline.mark st in
            issued_at.(i) <- Pipeline.issue st i;
            scheduled.(i) <- true;
            order.(depth) <- i;
            Ds_dag.Dag.iter_succ dag i release;
            search (depth + 1);
            Ds_dag.Dag.iter_succ dag i retain;
            scheduled.(i) <- false;
            Pipeline.undo st m
          end
        done
    end
  in
  search 0;
  {
    schedule = Schedule.make dag !best_order;
    cycles = !best_cycles;
    optimal = !exhausted;
    nodes_explored = !explored;
  }
