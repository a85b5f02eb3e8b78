(** Golden values: every heuristic of Table 1 evaluated on a
    hand-computed DAG, pinned exactly.  Any change to def/use extraction,
    arc latencies, the static passes or the dynamic evaluators that shifts
    a value trips this test.

    The block (table-forward, simple_risc, default options):

    {v
      0: ld  [%fp - 8], %o1     arcs: 0 -RAW 2-> 1 -RAW 1-> 2
      1: add %o1, 1, %o2              (node 3 independent)
      2: st  %o2, [%fp - 16]
      3: add %o3, 1, %o4
    v} *)

open Dagsched
open Helpers

let asm = "ld [%fp - 8], %o1\nadd %o1, 1, %o2\nst %o2, [%fp - 16]\nadd %o3, 1, %o4"

let golden_fresh =
  (* heuristic, expected values for nodes 0..3 in a fresh scheduler state *)
  [ (Heuristic.Interlock_with_previous, [| 0; 0; 0; 0 |]);
    (Heuristic.Earliest_execution_time, [| 0; 0; 0; 0 |]);
    (Heuristic.Interlock_with_child, [| 1; 0; 0; 0 |]);
    (Heuristic.Execution_time, [| 2; 1; 1; 1 |]);
    (Heuristic.Alternate_type, [| 0; 0; 0; 0 |]);
    (Heuristic.Fp_unit_busy, [| 0; 0; 0; 0 |]);
    (Heuristic.Max_path_to_leaf, [| 2; 1; 0; 0 |]);
    (Heuristic.Max_delay_to_leaf, [| 4; 2; 1; 1 |]);
    (Heuristic.Max_path_from_root, [| 0; 1; 2; 0 |]);
    (Heuristic.Max_delay_from_root, [| 0; 2; 3; 0 |]);
    (Heuristic.Earliest_start_time, [| 0; 2; 3; 0 |]);
    (Heuristic.Latest_start_time, [| 0; 2; 3; 3 |]);
    (Heuristic.Slack, [| 0; 0; 0; 3 |]);
    (Heuristic.Num_children, [| 1; 1; 0; 0 |]);
    (Heuristic.Delays_to_children Heuristic.Sum, [| 2; 1; 0; 0 |]);
    (Heuristic.Delays_to_children Heuristic.Max, [| 2; 1; 0; 0 |]);
    (Heuristic.Num_single_parent_children, [| 1; 1; 0; 0 |]);
    (Heuristic.Sum_delays_to_single_parent_children, [| 2; 1; 0; 0 |]);
    (Heuristic.Num_uncovered_children, [| 0; 1; 0; 0 |]);
    (Heuristic.Num_parents, [| 0; 1; 1; 0 |]);
    (Heuristic.Delays_from_parents Heuristic.Sum, [| 0; 2; 1; 0 |]);
    (Heuristic.Delays_from_parents Heuristic.Max, [| 0; 2; 1; 0 |]);
    (Heuristic.Num_descendants, [| 2; 1; 0; 0 |]);
    (Heuristic.Sum_exec_of_descendants, [| 2; 1; 0; 0 |]);
    (* default live-out: every register escapes the block *)
    (Heuristic.Registers_born, [| 1; 1; 0; 1 |]);
    (Heuristic.Registers_killed, [| 0; 0; 0; 0 |]);
    (Heuristic.Liveness, [| 1; 1; 0; 1 |]);
    (Heuristic.Birthing_instruction, [| 0; 0; 0; 0 |]);
    (Heuristic.Original_order, [| 0; 1; 2; 3 |]) ]

let test_golden_fresh () =
  let dag = dag_of_asm asm in
  let annot = Static_pass.compute dag in
  let st = Dyn_state.create dag Dyn_state.Forward in
  List.iter
    (fun (h, expected) ->
      Array.iteri
        (fun node want ->
          check_int
            (Printf.sprintf "%s(%d)" (Heuristic.to_string h) node)
            want
            (Evaluate.value h ~annot ~st node))
        expected)
    golden_fresh

let test_golden_after_first_issue () =
  (* after issuing the load at cycle 0 with the clock at 1 *)
  let dag = dag_of_asm asm in
  let annot = Static_pass.compute dag in
  let st = Dyn_state.create dag Dyn_state.Forward in
  Dyn_state.schedule st 0 ~at:0;
  st.Dyn_state.time <- 1;
  check_int "EET of the consumer" 2
    (Evaluate.value Heuristic.Earliest_execution_time ~annot ~st 1);
  check_int "consumer interlocks with previous" 1
    (Evaluate.value Heuristic.Interlock_with_previous ~annot ~st 1);
  check_int "independent add does not" 0
    (Evaluate.value Heuristic.Interlock_with_previous ~annot ~st 3);
  (* ld is LSU, add is IU: classes differ *)
  check_int "alternate type rewards the add" 1
    (Evaluate.value Heuristic.Alternate_type ~annot ~st 1);
  check_bool "node 0 scheduled" true st.Dyn_state.scheduled.(0);
  check_int "unscheduled parents of consumer" 0
    st.Dyn_state.unscheduled_parents.(1)

let test_golden_figure1_annotations () =
  (* the Figure-1 DAG's full static annotation set, deep_fp *)
  let dag =
    Builder.build Builder.Table_forward figure1_opts (figure1_block ())
  in
  let a = Static_pass.compute dag in
  Alcotest.(check (array int)) "exec" [| 20; 4; 4 |] a.Annot.exec_time;
  Alcotest.(check (array int)) "est" [| 0; 1; 20 |] a.Annot.est;
  Alcotest.(check (array int)) "lst" [| 0; 16; 20 |] a.Annot.lst;
  Alcotest.(check (array int)) "slack" [| 0; 15; 0 |] a.Annot.slack;
  Alcotest.(check (array int)) "mptl" [| 2; 1; 0 |] a.Annot.max_path_to_leaf;
  Alcotest.(check (array int)) "mdtl" [| 24; 8; 4 |] a.Annot.max_delay_to_leaf;
  check_int "critical path" 24 a.Annot.critical_path_length;
  Alcotest.(check (array int)) "descendants" [| 2; 1; 0 |] a.Annot.num_descendants

let test_golden_dot () =
  (* the DOT export of the same DAG, critical-path chain highlighted —
     pinned byte-for-byte so label/arc formatting can't drift silently *)
  let dag = dag_of_asm asm in
  let annot = Static_pass.compute dag in
  let critical =
    List.filter
      (fun i -> annot.Annot.slack.(i) = 0)
      (List.init (Dag.length dag) Fun.id)
  in
  Alcotest.(check (list int)) "critical chain" [ 0; 1; 2 ] critical;
  check_string "dot"
    "digraph block0 {\n\
    \  node [shape=box, fontname=\"monospace\", fontsize=10];\n\
    \  rankdir=TB;\n\
    \  n0 [label=\"0: ld [%fp - 8], %o1\", style=filled, \
     fillcolor=lightyellow];\n\
    \  n1 [label=\"1: add %o1, 1, %o2\", style=filled, \
     fillcolor=lightyellow];\n\
    \  n2 [label=\"2: st %o2, [%fp - 16]\", style=filled, \
     fillcolor=lightyellow];\n\
    \  n3 [label=\"3: add %o3, 1, %o4\"];\n\
    \  n0 -> n1 [label=\"RAW 2\", color=black];\n\
    \  n1 -> n2 [label=\"RAW 1\", color=black];\n\
     }\n"
    (Dot.render ~name:"block0" ~highlight:critical dag)

let test_golden_timeline_roundtrip () =
  (* the explain --timeline export shape: one issue span per
     instruction, built from the pipeline simulation, through
     Trace.to_json and back via the total reader *)
  let dag = dag_of_asm asm in
  let s = Published.run_on_dag Published.warren dag in
  let sim = Schedule.simulate s in
  let model = Dag.model dag in
  let spans =
    List.map
      (fun node ->
        {
          Trace.name = String.trim (Insn.to_string (Dag.insn dag node));
          cat = "issue";
          ts_us = float_of_int sim.Pipeline.issue_cycle.(node);
          dur_us =
            float_of_int (max 1 (model.Latency.exec_time (Dag.insn dag node)));
          minor_words = 0;
          pid = 0;
          tid = 0;
          args = [ ("node", Json.Int node) ];
        })
      (Array.to_list s.Schedule.order)
  in
  let json = Trace.to_json ~pid_names:[ (0, "block 0") ] spans in
  match Trace.events_of_json json with
  | Ok spans' -> check_bool "timeline round trip" true (spans = spans')
  | Error e -> Alcotest.fail (Json.error_to_string e)

let suite =
  [ quick "all heuristics, fresh state" test_golden_fresh;
    quick "after first issue" test_golden_after_first_issue;
    quick "figure 1 annotations" test_golden_figure1_annotations;
    quick "DOT export" test_golden_dot;
    quick "timeline export round trip" test_golden_timeline_roundtrip ]
