(** Scheduling tests: the list engine (both directions and both combining
    modes), schedule verification, the postpass fixup, and the six
    published algorithms of Table 2 on hand-checked blocks. *)

open Dagsched
open Helpers

(* ------------------------------------------------------------------ *)
(* the engine *)

let simple_config =
  {
    Engine.direction = Dyn_state.Forward;
    mode = Engine.Winnowing;
    keys = [ Engine.key Heuristic.Max_delay_to_leaf ];
  }

let test_engine_empty_block () =
  let dag = dag_of_asm "" in
  Alcotest.(check (array int)) "empty" [||] (Engine.schedule simple_config dag)

let test_engine_single () =
  let dag = dag_of_asm "nop" in
  Alcotest.(check (array int)) "single" [| 0 |] (Engine.schedule simple_config dag)

let test_engine_fills_delay_slot () =
  (* ld; use; independent — a good forward scheduler hoists the
     independent instruction into the load delay slot *)
  let dag = dag_of_asm "ld [%fp - 8], %o1\nadd %o1, 1, %o2\nadd %o3, 1, %o4" in
  let order =
    Engine.schedule
      { simple_config with
        Engine.keys =
          [ Engine.key Heuristic.Earliest_execution_time;
            Engine.key Heuristic.Max_delay_to_leaf ] }
      dag
  in
  Alcotest.(check (array int)) "independent fills slot" [| 0; 2; 1 |] order

let test_engine_respects_dependencies () =
  let dag = dag_of_asm "mov 1, %o1\nadd %o1, 1, %o2\nadd %o2, 1, %o3" in
  let order = Engine.schedule simple_config dag in
  Alcotest.(check (array int)) "chain preserved" [| 0; 1; 2 |] order

let test_engine_backward_valid () =
  let dag = dag_of_asm "ld [%fp - 8], %o1\nadd %o1, 1, %o2\nadd %o3, 1, %o4\nst %o2, [%fp - 16]" in
  let config =
    {
      Engine.direction = Dyn_state.Backward;
      mode = Engine.Priority_fn;
      keys = [ Engine.key Heuristic.Max_delay_from_root ];
    }
  in
  let order = Engine.schedule config dag in
  let s = Schedule.make dag order in
  check_bool "backward schedule valid" true (Verify.is_valid s)

let test_engine_tie_break_forward () =
  (* all independent and equal: forward keeps original order *)
  let dag = dag_of_asm "add %o1, 1, %o2\nadd %o3, 1, %o4\nadd %o5, 1, %l0" in
  let order = Engine.schedule simple_config dag in
  Alcotest.(check (array int)) "original order" [| 0; 1; 2 |] order

let test_engine_tie_break_backward () =
  let dag = dag_of_asm "add %o1, 1, %o2\nadd %o3, 1, %o4\nadd %o5, 1, %l0" in
  let config = { simple_config with Engine.direction = Dyn_state.Backward } in
  let order = Engine.schedule config dag in
  Alcotest.(check (array int)) "original order preserved" [| 0; 1; 2 |] order

let test_priority_vs_winnowing_both_valid () =
  let b = random_block 5150 in
  let dag = Builder.build Builder.Table_forward Opts.default b in
  List.iter
    (fun mode ->
      let config =
        {
          Engine.direction = Dyn_state.Forward;
          mode;
          keys =
            [ Engine.key Heuristic.Earliest_execution_time;
              Engine.key Heuristic.Max_delay_to_leaf;
              Engine.key Heuristic.Num_children ];
        }
      in
      let s = Schedule.make dag (Engine.schedule config dag) in
      check_bool "valid" true (Verify.is_valid s))
    [ Engine.Winnowing; Engine.Priority_fn ]

(* ------------------------------------------------------------------ *)
(* verification *)

let test_verify_accepts_identity () =
  let dag = dag_of_asm "mov 1, %o1\nadd %o1, 1, %o2" in
  check_bool "identity valid" true (Verify.is_valid (Schedule.identity dag))

let test_verify_rejects_violation () =
  let dag = dag_of_asm "mov 1, %o1\nadd %o1, 1, %o2" in
  let s = Schedule.make dag [| 1; 0 |] in
  (match Verify.check s with
  | Error (Verify.Arc_violated _) -> ()
  | _ -> Alcotest.fail "expected arc violation");
  check_bool "is_valid false" false (Verify.is_valid s)

(* Swapped dependent pairs report the first violated arc in [iter_arcs]
   order: ascending sources, each source's arcs newest first. *)
let test_verify_reports_first_arc () =
  let dag =
    dag_of_asm
      "mov 1, %o1\nadd %o1, 1, %o2\nadd %o2, %o1, %o3\n\
       st %o3, [%fp - 8]\nld [%fp - 8], %o4"
  in
  List.iter
    (fun (order, text) ->
      match Verify.check (Schedule.make dag order) with
      | Error v -> check_string "violation" text (Verify.violation_to_string v)
      | Ok () -> Alcotest.fail "expected arc violation")
    [ ([| 2; 1; 0; 3; 4 |], "arc 0 -> 2 (RAW, 1 cycles) violated");
      ([| 0; 1; 2; 4; 3 |], "arc 3 -> 4 (RAW, 1 cycles) violated");
      ([| 4; 3; 2; 1; 0 |], "arc 0 -> 2 (RAW, 1 cycles) violated");
      ([| 1; 0; 2; 3; 4 |], "arc 0 -> 1 (RAW, 1 cycles) violated") ]

let test_verify_rejects_non_permutation () =
  let dag = dag_of_asm "mov 1, %o1\nadd %o1, 1, %o2" in
  check_bool "duplicate" false (Verify.is_valid (Schedule.make dag [| 0; 0 |]));
  check_bool "short" false (Verify.is_valid (Schedule.make dag [| 0 |]));
  check_bool "out of range" false (Verify.is_valid (Schedule.make dag [| 0; 5 |]))

(* ------------------------------------------------------------------ *)
(* fixup *)

let test_fixup_fills_bubble () =
  (* schedule deliberately leaves the load delay slot empty *)
  let dag = dag_of_asm "ld [%fp - 8], %o1\nadd %o1, 1, %o2\nadd %o3, 1, %o4" in
  let s = Schedule.make dag [| 0; 1; 2 |] in
  let before = Schedule.cycles s in
  let s = Fixup.run s in
  check_bool "improved" true (Schedule.cycles s < before);
  check_bool "still valid" true (Verify.is_valid s);
  Alcotest.(check (array int)) "hoisted" [| 0; 2; 1 |] s.Schedule.order

let test_fixup_no_move_when_optimal () =
  let dag = dag_of_asm "mov 1, %o1\nadd %o1, 1, %o2" in
  let s = Fixup.run (Schedule.identity dag) in
  Alcotest.(check (array int)) "unchanged" [| 0; 1 |] s.Schedule.order

let test_fixup_never_breaks_validity () =
  let b = random_block 31337 in
  let dag = Builder.build Builder.Table_forward Opts.default b in
  let s = Fixup.run (Schedule.identity dag) in
  check_bool "valid after fixup" true (Verify.is_valid s)

(* ------------------------------------------------------------------ *)
(* published algorithms *)

let test_table2_roster () =
  check_int "six algorithms" 6 (List.length Published.all);
  List.iter
    (fun spec ->
      match Published.by_short spec.Published.short with
      | Some s -> check_string "lookup" spec.Published.name s.Published.name
      | None -> Alcotest.failf "%s not found" spec.Published.short)
    Published.all

let test_table2_construction_methods () =
  let check_alg short expected =
    match Published.by_short short with
    | Some spec -> check_bool short true (spec.Published.dag_algorithm = expected)
    | None -> Alcotest.fail short
  in
  check_alg "gibbons-muchnick" (Some Builder.N2_backward);
  check_alg "krishnamurthy" (Some Builder.Table_forward);
  check_alg "schlansker" None;
  check_alg "shieh-papachristou" None;
  check_alg "tiemann" (Some Builder.Table_forward);
  check_alg "warren" (Some Builder.N2_forward)

let test_table2_directions () =
  let backward = [ "schlansker"; "tiemann" ] in
  List.iter
    (fun spec ->
      let expected =
        if List.mem spec.Published.short backward then Dyn_state.Backward
        else Dyn_state.Forward
      in
      check_bool spec.Published.short true
        (spec.Published.sched_direction = expected))
    Published.all

let test_table2_priority_fn_users () =
  let priority = [ "krishnamurthy"; "schlansker"; "tiemann" ] in
  List.iter
    (fun spec ->
      let expected =
        if List.mem spec.Published.short priority then Engine.Priority_fn
        else Engine.Winnowing
      in
      check_bool spec.Published.short true (spec.Published.mode = expected))
    Published.all

let test_only_krishnamurthy_fixups () =
  List.iter
    (fun spec ->
      check_bool spec.Published.short
        (spec.Published.short = "krishnamurthy")
        spec.Published.postpass_fixup)
    Published.all

let test_all_published_valid_and_no_worse () =
  (* on a latency-bound block every algorithm must produce a valid
     schedule, and none should be worse than the original order here *)
  let asm =
    "ld [%fp - 8], %o1\nld [%fp - 16], %o2\nadd %o1, %o2, %o3\nld [%fp - 24], %o4\nadd %o3, %o4, %o5\nst %o5, [%fp - 32]\nadd %l0, 1, %l1\nadd %l1, 1, %l2"
  in
  let block = block_of_asm asm in
  List.iter
    (fun spec ->
      let s = Published.run spec block in
      check_bool (spec.Published.name ^ " valid") true (Verify.is_valid s);
      check_bool
        (spec.Published.name ^ " no worse")
        true
        (Schedule.cycles s <= Schedule.original_cycles s))
    Published.all

let test_gibbons_muchnick_classic () =
  (* the classic G&M example shape: interleave two load/use pairs *)
  let block =
    block_of_asm
      "ld [%fp - 8], %o1\nadd %o1, 1, %o2\nld [%fp - 16], %o3\nadd %o3, 1, %o4"
  in
  let s = Published.run Published.gibbons_muchnick block in
  check_bool "valid" true (Verify.is_valid s);
  check_int "no stalls after scheduling" 0 (Schedule.stalls s);
  check_bool "beats original" true
    (Schedule.cycles s < Schedule.original_cycles s)

let test_krishnamurthy_figure1 () =
  (* with the table-built DAG the 20-cycle arc is retained, so the divide
     is chosen first and the schedule is as good as possible *)
  let s =
    Published.run ~opts:figure1_opts Published.krishnamurthy (figure1_block ())
  in
  check_bool "valid" true (Verify.is_valid s);
  check_int "divide first" 0 s.Schedule.order.(0)

let test_tiemann_backward_produces_program_order () =
  (* output is in program order (already reversed), not reversed *)
  let block = block_of_asm "mov 1, %o1\nadd %o1, 1, %o2\nst %o2, [%fp - 8]" in
  let s = Published.run Published.tiemann block in
  Alcotest.(check (array int)) "chain stays in order" [| 0; 1; 2 |] s.Schedule.order

let test_warren_uses_liveness () =
  let spec = Published.warren in
  check_bool "liveness among keys" true
    (List.exists
       (fun k -> k.Engine.heuristic = Heuristic.Liveness)
       spec.Published.keys)

let test_published_on_kernels () =
  List.iter
    (fun kernel ->
      let blocks = Codegen.compile_to_blocks ~unroll:4 kernel in
      List.iter
        (fun block ->
          List.iter
            (fun spec ->
              let s = Published.run spec block in
              check_bool
                (Printf.sprintf "%s on %s" spec.Published.name kernel.Ast.name)
                true (Verify.is_valid s))
            Published.all)
        blocks)
    Kernels.all

(* ------------------------------------------------------------------ *)
(* tie-break determinism: when every ranked heuristic ties, the engine
   must fall back to program order — lowest index forward, highest index
   backward (the output is reversed, so program order is preserved) — in
   BOTH combining modes. *)

let tie_asm = "add %o1, 1, %o2\nadd %o3, 1, %o4\nadd %o5, 1, %l0"

let tie_config direction mode =
  {
    Engine.direction;
    mode;
    keys =
      [ Engine.key Heuristic.Max_delay_to_leaf;
        Engine.key Heuristic.Num_children ];
  }

let test_pick_tie_break_pinned () =
  let dag = dag_of_asm tie_asm in
  let annot = Static_pass.compute dag in
  List.iter
    (fun mode ->
      List.iter
        (fun (direction, dirname, expected) ->
          let config = tie_config direction mode in
          let name =
            Printf.sprintf "%s/%s" dirname
              (match mode with
              | Engine.Winnowing -> "winnowing"
              | Engine.Priority_fn -> "priority")
          in
          let st = Dyn_state.create dag direction in
          check_int name expected (Engine.pick config ~annot ~st [ 0; 1; 2 ]))
        [ (Dyn_state.Forward, "forward", 0); (Dyn_state.Backward, "backward", 2) ])
    [ Engine.Winnowing; Engine.Priority_fn ]

let test_run_tie_break_program_order () =
  let dag = dag_of_asm tie_asm in
  List.iter
    (fun mode ->
      List.iter
        (fun direction ->
          let order = Engine.schedule (tie_config direction mode) dag in
          Alcotest.(check (array int)) "program order" [| 0; 1; 2 |] order)
        [ Dyn_state.Forward; Dyn_state.Backward ])
    [ Engine.Winnowing; Engine.Priority_fn ]

let test_traced_matches_untraced () =
  (* run_traced and run agree across all six published configs, and
     the trace holds one decision per node *)
  List.iter
    (fun seed ->
      let b = random_block seed in
      List.iter
        (fun spec ->
          let dag = Builder.build (Published.builder spec) Opts.default b in
          let annot = Static_pass.compute dag in
          let config = Published.engine_config spec in
          let plain = Engine.run config ~annot dag in
          let traced, decisions = Engine.run_traced config ~annot dag in
          Alcotest.(check (array int))
            (spec.Published.short ^ " traced = untraced") plain traced;
          check_int "one decision per node" (Dag.length dag)
            (List.length decisions))
        Published.all)
    [ 42; 5150; 90210 ]

let test_signature_pins () =
  check_string "warren signature"
    "forward/winnowing: earliest execution time > alternate type > max \
     total delay to a leaf > liveness (minimized) > #uncovered children > \
     original order"
    (Engine.signature (Published.engine_config Published.warren));
  check_string "tiemann signature"
    "backward/priority: max total delay from root > birthing instruction > \
     original order (maximized)"
    (Engine.signature (Published.engine_config Published.tiemann));
  List.iter
    (fun spec ->
      let config = Published.engine_config spec in
      check_int
        (spec.Published.short ^ " one label per key")
        (List.length spec.Published.keys)
        (List.length (Engine.key_labels config)))
    Published.all

let suite =
  [ quick "engine empty block" test_engine_empty_block;
    quick "engine single" test_engine_single;
    quick "engine fills delay slot" test_engine_fills_delay_slot;
    quick "engine respects dependencies" test_engine_respects_dependencies;
    quick "engine backward valid" test_engine_backward_valid;
    quick "tie break forward" test_engine_tie_break_forward;
    quick "tie break backward" test_engine_tie_break_backward;
    quick "priority vs winnowing valid" test_priority_vs_winnowing_both_valid;
    quick "verify accepts identity" test_verify_accepts_identity;
    quick "verify rejects violation" test_verify_rejects_violation;
    quick "verify rejects non-permutation" test_verify_rejects_non_permutation;
    quick "fixup fills bubble" test_fixup_fills_bubble;
    quick "fixup no move when optimal" test_fixup_no_move_when_optimal;
    quick "fixup never breaks validity" test_fixup_never_breaks_validity;
    quick "table 2 roster" test_table2_roster;
    quick "table 2 construction methods" test_table2_construction_methods;
    quick "table 2 directions" test_table2_directions;
    quick "table 2 priority fn users" test_table2_priority_fn_users;
    quick "only krishnamurthy fixups" test_only_krishnamurthy_fixups;
    quick "all published valid and no worse" test_all_published_valid_and_no_worse;
    quick "gibbons & muchnick classic" test_gibbons_muchnick_classic;
    quick "krishnamurthy figure 1" test_krishnamurthy_figure1;
    quick "tiemann backward program order" test_tiemann_backward_produces_program_order;
    quick "warren uses liveness" test_warren_uses_liveness;
    quick "published on kernels" test_published_on_kernels;
    quick "pick tie-break pinned" test_pick_tie_break_pinned;
    quick "run tie-break program order" test_run_tie_break_program_order;
    quick "traced matches untraced" test_traced_matches_untraced;
    quick "signature pins" test_signature_pins;
    quick "verify reports the first violated arc" test_verify_reports_first_arc ]
