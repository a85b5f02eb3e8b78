(** Tests for the paper's planned extensions (§7): the branch-and-bound
    optimal scheduler, inherited cross-block latencies, the delay-slot
    filler and the superscalar issue model. *)

open Dagsched
open Helpers

(* ------------------------------------------------------------------ *)
(* optimal scheduler *)

let test_optimal_trivial () =
  let dag = dag_of_asm "mov 1, %o1\nadd %o1, 1, %o2" in
  let r = Optimal.run dag in
  check_bool "optimal" true r.Optimal.optimal;
  check_int "chain cannot be beaten" 2 r.Optimal.cycles;
  check_bool "valid" true (Verify.is_valid r.Optimal.schedule);
  let empty = Optimal.run (dag_of_asm "") in
  check_bool "empty block exhaustive" true empty.Optimal.optimal;
  check_int "empty block" 0 empty.Optimal.cycles

let test_optimal_fills_delay_slots () =
  (* ld / use / independent: the optimum hides the load latency *)
  let dag = dag_of_asm "ld [%fp - 8], %o1\nadd %o1, 1, %o2\nadd %o3, 1, %o4" in
  let r = Optimal.run dag in
  check_bool "optimal" true r.Optimal.optimal;
  check_int "three cycles" 3 r.Optimal.cycles;
  Alcotest.(check (array int)) "independent op in the slot" [| 0; 2; 1 |]
    r.Optimal.schedule.Schedule.order

let test_optimal_beats_or_matches_heuristics () =
  (* on small blocks the optimum is a floor for every published algorithm
     (in the pipeline's cycles, the search's own cost model) *)
  for seed = 1 to 12 do
    let rng = Prng.create (1000 + seed) in
    let block = Gen.block rng ~params:Gen.fp_loops ~id:seed ~size:10 () in
    let opts =
      { Opts.default with Opts.model = Latency.deep_fp;
        strategy = Disambiguate.Symbolic }
    in
    let dag = Builder.build Builder.Table_forward opts block in
    let r = Optimal.run dag in
    check_bool "search exhausted" true r.Optimal.optimal;
    List.iter
      (fun spec ->
        let s = Published.run_on_dag spec dag in
        check_bool
          (Printf.sprintf "optimal <= %s (seed %d)" spec.Published.name seed)
          true
          (r.Optimal.cycles <= Schedule.cycles s))
      Published.all
  done

let test_optimal_figure1 () =
  let dag =
    Builder.build Builder.Table_forward figure1_opts (figure1_block ())
  in
  let r = Optimal.run dag in
  check_bool "optimal" true r.Optimal.optimal;
  (* the divide must go first; total = 20 (divide latency) + 4 (last add) *)
  check_int "divide first" 0 r.Optimal.schedule.Schedule.order.(0);
  check_int "cycles" 24 r.Optimal.cycles

let test_optimal_budget () =
  let rng = Prng.create 7 in
  let block = Gen.block rng ~params:Gen.fp_straightline ~id:0 ~size:24 () in
  let dag = Builder.build Builder.Table_forward Opts.default block in
  let r = Optimal.run ~budget:500 dag in
  (* tiny budget: still returns a valid schedule, flags non-optimality
     unless the seed incumbent was already provably optimal *)
  check_bool "valid under budget" true (Verify.is_valid r.Optimal.schedule);
  check_bool "explored bounded" true (r.Optimal.nodes_explored <= 501 + Dag.length dag)

(* A block on which the greedy EET/max-delay order and all six published
   orders take 7 cycles or more.  Issuing the first subtract first hides
   its latency and the first add's, 6 cycles, so the search must beat
   every incumbent. *)
let test_optimal_beats_incumbents () =
  let dag =
    dag_of_asm
      ~opts:{ Opts.default with Opts.strategy = Disambiguate.Symbolic }
      "faddd %f14, %f24, %f4\n\
       fsubd %f12, %f20, %f6\n\
       fsubd %f20, %f6, %f0\n\
       faddd %f4, %f6, %f8\n\
       faddd %f10, %f4, %f4\n\
       sll %o5, %l0, %l0"
  in
  let greedy =
    { Engine.direction = Dyn_state.Forward; mode = Engine.Winnowing;
      keys =
        [ Engine.key Heuristic.Earliest_execution_time;
          Engine.key Heuristic.Max_delay_to_leaf ] }
  in
  let r = Optimal.run dag in
  check_bool "optimal" true r.Optimal.optimal;
  check_int "cycles" 6 r.Optimal.cycles;
  List.iter
    (fun (name, s) ->
      check_bool ("beats " ^ name) true (Schedule.cycles s > r.Optimal.cycles))
    (("greedy seed", Schedule.make dag (Engine.schedule greedy dag))
    :: List.map
         (fun spec -> (spec.Published.name, Published.run_on_dag spec dag))
         Published.all);
  check_int "subtract first" 1 r.Optimal.schedule.Schedule.order.(0)

let test_evaluate_matches_chain () =
  let dag = dag_of_asm "ld [%fp - 8], %o1\nadd %o1, 1, %o2" in
  check_int "evaluate serial chain" 3 (Arc_timing.evaluate dag [| 0; 1 |])

(* ------------------------------------------------------------------ *)
(* inherited cross-block latencies *)

let chain_config =
  {
    Engine.direction = Dyn_state.Forward;
    mode = Engine.Winnowing;
    keys =
      [ Engine.key Heuristic.Earliest_execution_time;
        Engine.key Heuristic.Max_delay_to_leaf ];
  }

let test_exit_residue () =
  (* a divide issued last leaves ~19 cycles of pending latency *)
  let opts = { Opts.default with Opts.model = Latency.deep_fp } in
  let dag =
    Builder.build Builder.Table_forward opts
      (block_of_asm "fdivd %f0, %f2, %f4")
  in
  let residue = Global.exit_residue (Schedule.identity dag) in
  match residue.Global.pending with
  | [ (Resource.R r, k) ] ->
      check_string "f4 pending" "%f4" (Reg.to_string r);
      check_int "19 residual cycles" 19 k
  | _ -> Alcotest.fail "expected one pending resource"

(* [Global.exit_residue] as it read each instruction's [Insn.defs] and
   kept the pending list by filtering, before it read the decode. *)
let exit_residue_by_lists (s : Schedule.t) =
  let insns = Schedule.insns s in
  let n = Array.length insns in
  if n = 0 then Global.empty_residue
  else begin
    let model = Dag.model s.Schedule.dag in
    let result = Pipeline.run model insns in
    let next_start = result.Pipeline.issue_cycle.(n - 1) + 1 in
    let latest = ref [] in
    Array.iteri
      (fun i insn ->
        let residual =
          result.Pipeline.issue_cycle.(i) + model.Latency.exec_time insn
          - next_start
        in
        if residual > 0 then
          List.iter
            (fun res ->
              let rest =
                List.filter (fun (r, _) -> not (Resource.equal r res)) !latest
              in
              latest := (res, residual) :: rest)
            (Insn.defs insn))
      insns;
    let unit_busy = Array.make Funit.count 0 in
    Array.iteri
      (fun i insn ->
        let busy = model.Latency.fp_busy insn in
        if busy > 0 then begin
          let u = Funit.index (Funit.of_insn insn) in
          let residual = result.Pipeline.issue_cycle.(i) + busy - next_start in
          if residual > unit_busy.(u) then unit_busy.(u) <- residual
        end)
      insns;
    { Global.pending = !latest; unit_busy }
  end

(* With a one-cycle WAW delay a redefinition can issue while the
   earlier definition is still in flight, so [pending] must keep only
   the last; every built-in model waits for the earlier result. *)
let short_waw =
  { Latency.deep_fp with
    Latency.name = "short_waw";
    waw = (fun ~parent:_ ~res:_ ~child:_ -> 1) }

(* the decode-reading residue equals the list version, pending order
   included, for the original and the engine's order under every model;
   the first call reads the table builder's decode, the later ones a
   fresh decode *)
let prop_exit_residue_matches_lists seed =
  let block = random_block seed in
  List.for_all
    (fun model ->
      let opts =
        { Opts.default with Opts.model; strategy = Disambiguate.Symbolic }
      in
      let dag = Builder.build Builder.Table_forward opts block in
      let engine =
        Schedule.make dag (Engine.schedule Batch.section6.Batch.engine dag)
      in
      let same s =
        let a = Global.exit_residue s in
        let b = exit_residue_by_lists s in
        List.equal
          (fun (r, x) (r', y) -> Resource.equal r r' && x = y)
          a.Global.pending b.Global.pending
        && a.Global.unit_busy = b.Global.unit_busy
      in
      same engine && same (Schedule.identity dag) && same engine)
    (Latency.all_models @ [ short_waw ])

let test_residue_empty_for_fast_ops () =
  let dag = dag_of_asm "add %o1, 1, %o2" in
  let residue = Global.exit_residue (Schedule.identity dag) in
  check_bool "no pending" true (residue.Global.pending = [])

let test_inherited_seeding_changes_choice () =
  (* block 1 ends with a divide into %f4; block 2 starts with a user of
     %f4 plus independent work.  A local scheduler leaves the user first
     (it looks free); the seeded scheduler knows better. *)
  let opts = { Opts.default with Opts.model = Latency.deep_fp } in
  let b1 = block_of_asm "fdivd %f0, %f2, %f4" in
  (* the faddd has the longest delay-to-leaf, so a local scheduler issues
     it first and stalls on the in-flight divide; the independent adds
     could have filled that shadow *)
  let b2 =
    block_of_asm
      "faddd %f4, %f6, %f8\n\
       add %o1, 1, %l0\n\
       add %o2, 1, %l1\n\
       add %o3, 1, %l2\n\
       add %o4, 1, %l3\n\
       add %o5, 1, %l4\n\
       add %i0, 1, %l5\n\
       add %i1, 1, %l6\n\
       add %i2, 1, %l7"
  in
  let run inherit_latencies =
    let _, insns =
      Global.schedule_chain ~inherit_latencies ~config:chain_config ~opts
        [ b1; b2 ]
    in
    Global.chain_cycles Latency.deep_fp insns
  in
  let local = run false in
  let global = run true in
  check_bool
    (Printf.sprintf "inherited (%d) <= local (%d)" global local)
    true (global <= local);
  check_bool "strictly better here" true (global < local)

let test_chain_valid () =
  let opts = { Opts.default with Opts.strategy = Disambiguate.Symbolic } in
  let blocks =
    List.filteri (fun i _ -> i < 10) (Profiles.generate Profiles.linpack)
  in
  let scheduled, _ =
    Global.schedule_chain ~inherit_latencies:true ~config:chain_config ~opts
      blocks
  in
  List.iter (fun s -> check_bool "valid" true (Verify.is_valid s)) scheduled

(* ------------------------------------------------------------------ *)
(* delay slots *)

let test_delay_slot_fill () =
  let opts = { Opts.default with Opts.anchor_branch = true } in
  let block =
    block_of_asm "add %o1, 1, %o2\nadd %o3, 1, %o4\ncmp %o2, 0\nbe out"
  in
  let dag = Builder.build Builder.Table_forward opts block in
  let s = Schedule.identity dag in
  match Delay_slot.fill s with
  | None -> Alcotest.fail "expected a filled slot"
  | Some f ->
      (* the independent add (node 1) is the only legal filler *)
      check_int "filler" 1 f.Delay_slot.filler;
      check_int "filler sits after the branch" 1
        f.Delay_slot.order.(Array.length f.Delay_slot.order - 1)

let test_delay_slot_no_candidate () =
  (* every instruction feeds the branch: nothing can move *)
  let block = block_of_asm "cmp %o1, 0\nbe out" in
  let dag = Builder.build Builder.Table_forward Opts.default block in
  check_bool "no fill" true (Delay_slot.fill (Schedule.identity dag) = None)

let test_delay_slot_not_a_branch () =
  let dag = dag_of_asm "add %o1, 1, %o2\nadd %o2, 1, %o3" in
  check_bool "no branch, no fill" true
    (Delay_slot.fill (Schedule.identity dag) = None)

let test_fill_rate () =
  let opts = { Opts.default with Opts.strategy = Disambiguate.Symbolic } in
  let blocks =
    List.filteri (fun i _ -> i < 40) (Profiles.generate Profiles.grep)
  in
  let schedules =
    List.map
      (fun b ->
        Schedule.identity (Builder.build Builder.Table_forward opts b))
      blocks
  in
  let branches, filled = Delay_slot.fill_rate schedules in
  check_bool "some branches" true (branches > 0);
  check_bool "fill rate sane" true (filled >= 0 && filled <= branches)

(* ------------------------------------------------------------------ *)
(* superscalar issue *)

let test_superscalar_width1_matches_pipeline () =
  let insns =
    Array.of_list (parse "add %o1, 1, %o2\nfaddd %f0, %f2, %f4\nld [%fp - 8], %o3")
  in
  let legacy = Pipeline_legacy.run Latency.simple_risc insns in
  let r = Pipeline.run ~width:1 Latency.simple_risc insns in
  check_int "same completion at width 1" legacy.Pipeline.completion
    r.Pipeline.completion;
  Alcotest.(check (array int)) "same issue cycles at width 1"
    legacy.Pipeline.issue_cycle r.Pipeline.issue_cycle

let test_superscalar_dual_issue () =
  (* alternating int/fp pairs dual-issue perfectly *)
  let insns =
    Array.of_list
      (parse
         "add %o1, 1, %o2\nfaddd %f0, %f2, %f4\nadd %o3, 1, %o4\nfaddd %f6, %f8, %f10")
  in
  let r = Pipeline.run ~width:2 Latency.simple_risc insns in
  check_int "pairs issue together" 0 r.Pipeline.issue_cycle.(1);
  check_bool "second pair same cycle" true
    (r.Pipeline.issue_cycle.(2) = r.Pipeline.issue_cycle.(3));
  Alcotest.(check (float 0.0)) "every cycle dual-issues" 1.0
    (Pipeline.dual_issue_rate r)

let test_superscalar_unit_conflict () =
  (* two integer adds cannot share a cycle: one IU *)
  let insns = Array.of_list (parse "add %o1, 1, %o2\nadd %o3, 1, %o4") in
  let r = Pipeline.run ~width:2 Latency.simple_risc insns in
  check_bool "structural conflict splits them" true
    (r.Pipeline.issue_cycle.(1) > r.Pipeline.issue_cycle.(0))

let test_superscalar_data_dependency () =
  let insns = Array.of_list (parse "add %o1, 1, %o2\nfaddd %f0, %f2, %f4\nsub %o2, 1, %o5") in
  let r = Pipeline.run ~width:4 Latency.simple_risc insns in
  check_bool "dependent waits" true
    (r.Pipeline.issue_cycle.(2) > r.Pipeline.issue_cycle.(0))

let test_alternate_type_helps_dual_issue () =
  (* a block of interleavable int and fp work: scheduling with the
     alternate-type heuristic ranked first must not hurt, and typically
     helps, dual-issue throughput *)
  let rng = Prng.create 77 in
  let params = { Gen.fp_loops with Gen.with_branch = false } in
  let block = Gen.block rng ~params ~id:0 ~size:40 () in
  let opts = { Opts.default with Opts.strategy = Disambiguate.Symbolic } in
  let dag = Builder.build Builder.Table_forward opts block in
  let annot = Static_pass.compute dag in
  let schedule keys =
    let config =
      { Engine.direction = Dyn_state.Forward; mode = Engine.Winnowing; keys }
    in
    let order = Engine.run config ~annot dag in
    Pipeline.cycles ~width:2 Latency.simple_risc
      (Schedule.insns (Schedule.make dag order))
  in
  let without =
    schedule [ Engine.key Heuristic.Earliest_execution_time ]
  in
  let with_alt =
    schedule
      [ Engine.key Heuristic.Earliest_execution_time;
        Engine.key Heuristic.Alternate_type ]
  in
  check_bool
    (Printf.sprintf "alternate type no worse (%d vs %d)" with_alt without)
    true
    (with_alt <= without + 2)


(* ------------------------------------------------------------------ *)
(* reservation-table scheduling *)

let test_resv_valid_and_ordered () =
  let opts = { Opts.default with Opts.model = Latency.deep_fp } in
  let rng = Prng.create 55 in
  let block = Gen.block rng ~params:Gen.fp_loops ~id:0 ~size:25 () in
  let dag = Builder.build Builder.Table_forward opts block in
  let r = Resv_sched.run dag in
  check_bool "valid" true (Verify.is_valid (Resv_sched.schedule dag r));
  (* cycle assignment respects every arc *)
  Dag.iter_arcs
    (fun a ->
      check_bool "arc latency honored" true
        (r.Resv_sched.start_cycle.(a.dst)
         >= r.Resv_sched.start_cycle.(a.src) + a.latency))
    dag;
  check_bool "makespan covers all" true
    (Array.for_all (fun c -> c < r.Resv_sched.makespan) r.Resv_sched.start_cycle)

let test_resv_single_issue () =
  let dag = dag_of_asm "add %o1, 1, %o2\nadd %o3, 1, %o4\nadd %o5, 1, %l0" in
  let r = Resv_sched.run dag in
  let sorted = Array.copy r.Resv_sched.start_cycle in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "one issue per cycle" [| 0; 1; 2 |] sorted

let test_resv_models_structural_hazard () =
  (* two divides: the non-pipelined unit serializes them in the table *)
  let opts = { Opts.default with Opts.model = Latency.deep_fp } in
  let block = block_of_asm "fdivd %f0, %f2, %f4\nfdivd %f6, %f8, %f10" in
  let dag = Builder.build Builder.Table_forward opts block in
  let r = Resv_sched.run dag in
  let gap = abs (r.Resv_sched.start_cycle.(1) - r.Resv_sched.start_cycle.(0)) in
  check_bool "second divide waits for the unit" true (gap >= 18)

let test_resv_priority_matters () =
  (* the default priority is the critical path: the divide goes first *)
  let dag =
    Builder.build Builder.Table_forward figure1_opts (figure1_block ())
  in
  let r = Resv_sched.run dag in
  check_int "divide scheduled first" 0 r.Resv_sched.order.(0)

let suite =
  [ quick "optimal trivial" test_optimal_trivial;
    quick "optimal fills delay slots" test_optimal_fills_delay_slots;
    quick "optimal beats or matches heuristics" test_optimal_beats_or_matches_heuristics;
    quick "optimal figure 1" test_optimal_figure1;
    quick "optimal budget" test_optimal_budget;
    quick "evaluate matches chain" test_evaluate_matches_chain;
    quick "exit residue" test_exit_residue;
    quick "residue empty for fast ops" test_residue_empty_for_fast_ops;
    quick "inherited seeding helps" test_inherited_seeding_changes_choice;
    quick "chain valid" test_chain_valid;
    quick "delay slot fill" test_delay_slot_fill;
    quick "delay slot no candidate" test_delay_slot_no_candidate;
    quick "delay slot not a branch" test_delay_slot_not_a_branch;
    quick "fill rate" test_fill_rate;
    quick "superscalar width 1 = pipeline" test_superscalar_width1_matches_pipeline;
    quick "superscalar dual issue" test_superscalar_dual_issue;
    quick "superscalar unit conflict" test_superscalar_unit_conflict;
    quick "superscalar data dependency" test_superscalar_data_dependency;
    quick "alternate type helps dual issue" test_alternate_type_helps_dual_issue;
    quick "reservation valid and ordered" test_resv_valid_and_ordered;
    quick "reservation single issue" test_resv_single_issue;
    quick "reservation structural hazard" test_resv_models_structural_hazard;
    quick "reservation priority" test_resv_priority_matters;
    qcheck ~count:100 "exit residue = list version" arb_block
      prop_exit_residue_matches_lists;
    quick "optimal beats every incumbent" test_optimal_beats_incumbents ]
