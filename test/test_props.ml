(** Property-based tests (qcheck) over randomly generated blocks: the
    invariants listed in DESIGN.md §6. *)

open Dagsched
open Helpers

let opts_of seed =
  (* vary the model and disambiguation strategy with the seed *)
  let rng = Prng.create (seed * 7 + 1) in
  let model =
    List.nth Latency.all_models (Prng.int rng (List.length Latency.all_models))
  in
  let strategy =
    List.nth Disambiguate.all (Prng.int rng (List.length Disambiguate.all))
  in
  { Opts.model; strategy; anchor_branch = Prng.bool rng 0.5 }

let dag_of seed alg = Builder.build alg (opts_of seed) (random_block seed)

(* every builder yields forward-ordered (hence acyclic) DAGs *)
let prop_forward_ordered seed =
  List.for_all (fun alg -> Dag.forward_ordered (dag_of seed alg)) Builder.all

(* all five builders induce identical ordering constraints *)
let prop_closures_equal seed =
  let reference = dag_of seed Builder.N2_forward in
  List.for_all
    (fun alg -> Closure.equivalent reference (dag_of seed alg))
    Builder.all

(* The longest-path latency from every node to every node, [-1] where
   there is no path: one forward sweep per source over the
   forward-ordered arcs, O(n * arcs). *)
let longest_paths dag =
  let n = Dag.length dag in
  Array.init n (fun s ->
      let d = Array.make n (-1) in
      d.(s) <- 0;
      for i = s to n - 1 do
        if d.(i) >= 0 then
          Dag.iter_succ dag i (fun j lat _ -> d.(j) <- max d.(j) (d.(i) + lat))
      done;
      d)

(* Timing closures (the paper's Figure 1): the builders that keep every
   timing-relevant arc agree on the longest-path latency between every
   pair of nodes, under every latency model, disambiguation strategy and
   anchoring *)
let prop_timing_closures_equal seed =
  let block = random_block seed in
  List.for_all
    (fun opts ->
      let reference = longest_paths (Builder.build Builder.N2_forward opts block) in
      List.for_all
        (fun alg -> longest_paths (Builder.build alg opts block) = reference)
        [ Builder.N2_backward; Builder.Table_forward; Builder.Table_backward ])
    (List.concat_map
       (fun model ->
         List.concat_map
           (fun strategy ->
             List.map
               (fun anchor_branch -> { Opts.model; strategy; anchor_branch })
               [ false; true ])
           Disambiguate.all)
       Latency.all_models)

(* the avoidance builders produce transitively reduced DAGs *)
let prop_reduced seed =
  Closure.is_transitively_reduced (dag_of seed Builder.Landskov)
  && Closure.is_transitively_reduced (dag_of seed Builder.Reach_backward)

(* arc-count ordering: n2 >= table >= reduced *)
let prop_arc_counts seed =
  let arcs alg = Dag.n_arcs (dag_of seed alg) in
  let n2 = arcs Builder.N2_forward in
  let tf = arcs Builder.Table_forward in
  let tb = arcs Builder.Table_backward in
  let red = arcs Builder.Landskov in
  n2 >= tf && n2 >= tb && tf >= red && tb >= red

(* every table arc also appears in the n2 DAG (table ⊆ n2) *)
let prop_table_arcs_subset seed =
  let n2 = dag_of seed Builder.N2_forward in
  List.for_all
    (fun alg ->
      let dag = dag_of seed alg in
      List.for_all
        (fun (a : Dag.arc) ->
          a.kind = Dep.Ctl || Dag.has_arc n2 ~src:a.src ~dst:a.dst)
        (Dag.arcs dag))
    [ Builder.Table_forward; Builder.Table_backward ]

(* reach maps = naive closure *)
let prop_reach_maps seed =
  let dag = dag_of seed Builder.Reach_backward in
  match Dag.reach dag with
  | None -> false
  | Some maps ->
      let naive = Closure.descendants dag in
      Array.for_all2 Bitset.equal maps naive

(* EST <= LST (slack >= 0), and some zero-slack node exists *)
let prop_slack seed =
  let dag = dag_of seed Builder.Table_forward in
  let a = Static_pass.compute dag in
  let n = Dag.length dag in
  let ok = ref (n = 0) in
  let nonneg = ref true in
  for i = 0 to n - 1 do
    if a.Annot.slack.(i) < 0 then nonneg := false;
    if a.Annot.slack.(i) = 0 then ok := true
  done;
  !nonneg && !ok

(* EST consistency: est(child) >= est(parent) + arc latency *)
let prop_est_consistent seed =
  let dag = dag_of seed Builder.Table_forward in
  let a = Static_pass.compute dag in
  let ok = ref true in
  Dag.iter_arcs
    (fun arc ->
      if a.Annot.est.(arc.dst) < a.Annot.est.(arc.src) + arc.latency then
        ok := false)
    dag;
  !ok

(* level lists and reverse walk agree on all backward annotations *)
let prop_traversals_agree seed =
  let dag = dag_of seed Builder.Table_backward in
  let a = Static_pass.compute ~traversal:Static_pass.Reverse_walk dag in
  let b = Static_pass.compute ~traversal:Static_pass.Level_lists dag in
  a.Annot.max_path_to_leaf = b.Annot.max_path_to_leaf
  && a.Annot.max_delay_to_leaf = b.Annot.max_delay_to_leaf
  && a.Annot.lst = b.Annot.lst
  && a.Annot.slack = b.Annot.slack

(* levels are consistent: level(child) > level(parent) *)
let prop_levels_monotone seed =
  let dag = dag_of seed Builder.Table_forward in
  let levels = Level.compute dag in
  let ok = ref true in
  Dag.iter_arcs
    (fun arc ->
      if levels.Level.level_of.(arc.dst) <= levels.Level.level_of.(arc.src)
      then ok := false)
    dag;
  !ok

(* every published scheduler emits a valid schedule on every builder's DAG *)
let prop_schedules_valid seed =
  let block = random_block seed in
  let opts = opts_of seed in
  List.for_all
    (fun spec ->
      let dag = Builder.build (Published.builder spec) opts block in
      Verify.is_valid (Ds_sched.Published.run_on_dag spec dag))
    Published.all

(* schedules never regress the simulated cycle count by more than the
   no-information bound: they must beat or match the WORST permutation —
   cheap sanity: valid and complete; stronger: identity is a valid
   baseline so a schedule must stay within 2x of it (generous) *)
let prop_schedules_reasonable seed =
  let block = random_block seed in
  List.for_all
    (fun spec ->
      let s = Published.run spec block in
      Schedule.cycles s <= 2 * max 1 (Schedule.original_cycles s))
    Published.all

(* fixup preserves validity and never makes things worse *)
let prop_fixup_improves seed =
  let dag = dag_of seed Builder.Table_forward in
  let before = Schedule.identity dag in
  let cycles_before = Schedule.cycles before in
  let after = Fixup.run (Schedule.identity dag) in
  Verify.is_valid after && Schedule.cycles after <= cycles_before

(* the dynamic uncovering hierarchy holds mid-schedule *)
let prop_uncovering_hierarchy seed =
  let dag = dag_of seed Builder.Table_forward in
  let st = Dyn_state.create dag Dyn_state.Forward in
  let n = Dag.length dag in
  let ok = ref true in
  (* schedule greedily in program order, checking at each step *)
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if not st.Dyn_state.scheduled.(j) then begin
        let u = Dynamic.num_uncovered_children st j in
        let s = Dynamic.num_single_parent_children st j in
        if not (u <= s && s <= Dag.n_children dag j) then ok := false
      end
    done;
    Dyn_state.schedule st i ~at:st.Dyn_state.time;
    st.Dyn_state.time <- st.Dyn_state.time + 1
  done;
  !ok

(* pipeline simulation of a valid schedule issues every instruction at or
   after its predecessor (monotone issue cycles) *)
let prop_pipeline_monotone seed =
  let block = random_block seed in
  let model = (opts_of seed).Opts.model in
  let r = Pipeline.run model block.Block.insns in
  let ok = ref true in
  Array.iteri
    (fun i c -> if i > 0 && c <= r.Pipeline.issue_cycle.(i - 1) then ok := false)
    r.Pipeline.issue_cycle;
  !ok && r.Pipeline.stall_cycles >= 0

(* every published scheduler preserves architectural semantics: running
   the scheduled block from a random initial state ends in exactly the
   state the original order produces *)
let prop_schedules_preserve_semantics seed =
  let block = random_block seed in
  (* semantic checking matches the Symbolic strategy's memory model *)
  let opts = { Opts.default with Opts.strategy = Disambiguate.Symbolic } in
  let init = Interp.create () in
  Interp.randomize (Prng.create (seed + 1)) init;
  match Interp.run ~state:(Interp.copy init) block.Block.insns with
  | exception Interp.Unsupported _ -> true
  | reference ->
      List.for_all
        (fun spec ->
          let s = Published.run ~opts spec block in
          let result =
            Interp.run ~state:(Interp.copy init) (Schedule.insns s)
          in
          Interp.equal_state reference result)
        Published.all


(* the optimum is a floor for every published algorithm on small blocks
   (same cost model) *)
let prop_optimal_floor seed =
  let rng = Prng.create (seed + 31337) in
  let size = 4 + Prng.int rng 7 in
  let block = Gen.block rng ~params:Gen.fp_loops ~id:seed ~size () in
  let opts =
    { Opts.default with Opts.model = Latency.deep_fp;
      strategy = Disambiguate.Symbolic }
  in
  let dag = Builder.build Builder.Table_forward opts block in
  let r = Optimal.run dag in
  (not r.Optimal.optimal)
  || Verify.is_valid r.Optimal.schedule
     && List.for_all
          (fun spec ->
            let s = Published.run_on_dag spec dag in
            r.Optimal.cycles <= Optimal.evaluate dag s.Schedule.order)
          Published.all

(* wider issue never loses cycles *)
let prop_superscalar_monotone seed =
  let block = random_block seed in
  let c width = Pipeline.cycles ~width Latency.simple_risc block.Block.insns in
  c 2 <= c 1 && c 4 <= c 2

(* width-1 issue equals the scalar pipeline yardstick *)
let prop_superscalar_width1 seed =
  let block = random_block seed in
  Pipeline.run ~width:1 Latency.simple_risc block.Block.insns
  = Pipeline_legacy.run Latency.simple_risc block.Block.insns

(* emission preserves semantics: the emitted program (delay slot filled or
   NOP-padded) computes the same state as the scheduled block *)
let prop_emit_preserves_semantics seed =
  let block = random_block seed in
  let opts = { Opts.default with Opts.strategy = Disambiguate.Symbolic } in
  let s = Published.run ~opts Published.gibbons_muchnick block in
  let r = Emit.emit s in
  let init = Interp.create () in
  Interp.randomize (Prng.create (seed + 7)) init;
  match Interp.run ~state:(Interp.copy init) (Schedule.insns s) with
  | exception Interp.Unsupported _ -> true
  | reference ->
      let emitted = Interp.run ~state:(Interp.copy init) (Array.of_list r.Emit.insns) in
      Interp.equal_state reference emitted

(* the reservation-table scheduler always emits a valid cycle assignment *)
let prop_reservation_valid seed =
  let block = random_block seed in
  let opts = opts_of seed in
  let dag = Builder.build Builder.Table_forward opts block in
  let r = Resv_sched.run dag in
  Verify.is_valid (Resv_sched.schedule dag r)
  && List.for_all
       (fun (a : Dag.arc) ->
         r.Resv_sched.start_cycle.(a.dst)
         >= r.Resv_sched.start_cycle.(a.src) + a.latency)
       (Dag.arcs dag)

(* delay-slot filling never moves an instruction the branch depends on *)
let prop_delay_slot_safe seed =
  let block = random_block seed in
  let opts = { Opts.default with Opts.strategy = Disambiguate.Symbolic } in
  let dag = Builder.build Builder.Table_forward opts block in
  let s = Schedule.identity dag in
  match Delay_slot.fill s with
  | None -> true
  | Some f ->
      let branch = s.Schedule.order.(Array.length s.Schedule.order - 1) in
      List.for_all
        (fun (a : Dag.arc) -> a.kind = Dep.Ctl || a.dst <> branch)
        (fst (adjacency dag)).(f.Delay_slot.filler)

(* workload generation is deterministic *)
let prop_generation_deterministic seed =
  let a = random_block seed and b = random_block seed in
  Block.length a = Block.length b
  && Array.for_all2 Insn.equal_ignoring_index a.Block.insns b.Block.insns

let suite =
  [ qcheck "builders forward-ordered" arb_block prop_forward_ordered;
    qcheck ~count:100 "closures equal across builders" arb_block prop_closures_equal;
    qcheck "avoidance builders reduced" arb_block prop_reduced;
    qcheck "arc count ordering" arb_block prop_arc_counts;
    qcheck "table arcs subset of n2" arb_block prop_table_arcs_subset;
    qcheck "reach maps = closure" arb_block prop_reach_maps;
    qcheck "slack nonnegative, critical path exists" arb_block prop_slack;
    qcheck "EST consistent" arb_block prop_est_consistent;
    qcheck "traversals agree" arb_block prop_traversals_agree;
    qcheck "levels monotone" arb_block prop_levels_monotone;
    qcheck ~count:100 "published schedules valid" arb_block prop_schedules_valid;
    qcheck ~count:60 "published schedules reasonable" arb_block prop_schedules_reasonable;
    qcheck "fixup improves" arb_block prop_fixup_improves;
    qcheck ~count:60 "uncovering hierarchy" arb_block prop_uncovering_hierarchy;
    qcheck "pipeline monotone" arb_block prop_pipeline_monotone;
    qcheck ~count:80 "schedules preserve semantics" arb_block
      prop_schedules_preserve_semantics;
    qcheck ~count:40 "optimal is a floor" arb_block prop_optimal_floor;
    qcheck ~count:100 "superscalar monotone" arb_block prop_superscalar_monotone;
    qcheck ~count:100 "superscalar width 1 = pipeline" arb_block
      prop_superscalar_width1;
    qcheck ~count:80 "emit preserves semantics" arb_block
      prop_emit_preserves_semantics;
    qcheck ~count:100 "reservation valid" arb_block prop_reservation_valid;
    qcheck ~count:100 "delay slot safe" arb_block prop_delay_slot_safe;
    qcheck "generation deterministic" arb_block prop_generation_deterministic;
    qcheck ~count:60 "timing closures equal across n2 and table builders" arb_block
      prop_timing_closures_equal ]
