(** Tests for the tooling layer: DOT export, Gantt rendering, the
    register-limited scheduler, and the batch driver behind
    `schedtool batch`. *)

open Dagsched
open Helpers

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* DOT export *)

let test_dot_basic () =
  let dag = dag_of_asm "ld [%fp - 8], %o1\nadd %o1, 1, %o2" in
  let dot = Dot.render dag in
  check_bool "digraph" true (contains ~needle:"digraph dag" dot);
  check_bool "node 0" true (contains ~needle:"n0 [label=" dot);
  check_bool "arc" true (contains ~needle:"n0 -> n1" dot);
  check_bool "kind label" true (contains ~needle:"RAW 2" dot)

let test_dot_transitive_dashed () =
  let dag =
    Builder.build Builder.N2_forward Opts.default
      (block_of_asm "add %o1, 1, %o2\nadd %o2, 1, %o2\nadd %o2, 1, %o3")
  in
  let dot = Dot.render dag in
  check_bool "dashed transitive arc" true (contains ~needle:"style=dashed" dot);
  (* random blocks under every builder: exactly the transitive arcs are
     dashed, exactly the highlighted nodes are filled *)
  List.iter
    (fun seed ->
      let block = random_block seed in
      List.iter
        (fun alg ->
          let dag = Builder.build alg Opts.default block in
          let highlight =
            List.filter
              (fun i -> (i + seed) mod 3 = 0)
              (List.init (Dag.length dag) Fun.id)
          in
          let lines = String.split_on_char '\n' (Dot.render ~highlight dag) in
          let label = Printf.sprintf "seed %d, %s" seed (Builder.to_string alg) in
          check_int (label ^ ": dashed arcs")
            (Closure.count_transitive_arcs dag)
            (List.length (List.filter (contains ~needle:"style=dashed") lines));
          Alcotest.(check (list int))
            (label ^ ": filled nodes") highlight
            (List.filter_map
               (fun l ->
                 if contains ~needle:"fillcolor=lightyellow" l then
                   Some (Scanf.sscanf l " n%d " Fun.id)
                 else None)
               lines))
        Builder.all)
    (List.init 20 (fun i -> (3 * i) + 1))

let test_dot_highlight () =
  let dag = dag_of_asm "nop\nnop" in
  let dot = Dot.render ~highlight:[ 0 ] dag in
  check_bool "highlight style" true (contains ~needle:"fillcolor=lightyellow" dot)

let test_dot_escapes_quotes () =
  (* instruction text never contains quotes today, but the escaper must
     not corrupt ordinary text either *)
  let dag = dag_of_asm "ld [%fp - 8], %o1" in
  let dot = Dot.render dag in
  check_bool "well formed" true (contains ~needle:"[%fp - 8]" dot)

(* ------------------------------------------------------------------ *)
(* Gantt rendering *)

let test_gantt_shows_stalls () =
  let dag = dag_of_asm "ld [%fp - 8], %o1\nadd %o1, 1, %o2" in
  let out = Gantt.render (Schedule.identity dag) in
  check_bool "stall annotated" true (contains ~needle:"stall cycle" out);
  check_bool "completion line" true (contains ~needle:"completion:" out)

let test_gantt_no_stall_clean () =
  let dag = dag_of_asm "add %o1, 1, %o2\nadd %o3, 1, %o4" in
  let out = Gantt.render (Schedule.identity dag) in
  check_bool "no stall annotation" false (contains ~needle:"stall cycle)" out)

let test_gantt_line_count () =
  let dag = dag_of_asm "nop\nnop\nnop" in
  let out = Gantt.render (Schedule.identity dag) in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' out) in
  check_int "3 insns + summary" 4 (List.length lines)

(* ------------------------------------------------------------------ *)
(* register-limited scheduling *)

let wide_block () =
  let strand k =
    Printf.sprintf
      "lddf [%%fp - %d], %%f%d\nlddf [%%fp - %d], %%f%d\nfmuld %%f%d, %%f%d, %%f%d\nstdf %%f%d, [%%fp - %d]\n"
      (16 * k) (4 * (k mod 4))
      ((16 * k) + 8) ((4 * (k mod 4)) + 2)
      (4 * (k mod 4)) ((4 * (k mod 4)) + 2)
      (16 + (2 * (k mod 8))) (16 + (2 * (k mod 8)))
      (256 + (8 * k))
  in
  block_of_asm (String.concat "" (List.init 8 (fun k -> strand (k + 1))))

let keys =
  [ Engine.key Heuristic.Earliest_execution_time;
    Engine.key Heuristic.Max_delay_to_leaf ]

let test_reglimit_valid () =
  let opts = { Opts.default with Opts.model = Latency.deep_fp } in
  let dag = Builder.build Builder.Table_forward opts (wide_block ()) in
  List.iter
    (fun limit ->
      let r = Reglimit.run ~limit ~keys dag in
      check_bool
        (Printf.sprintf "valid at limit %d" limit)
        true
        (Verify.is_valid r.Reglimit.schedule))
    [ 2; 4; 8; max_int ]

let test_reglimit_reduces_pressure () =
  let opts = { Opts.default with Opts.model = Latency.deep_fp } in
  let dag = Builder.build Builder.Table_forward opts (wide_block ()) in
  let tight = Reglimit.run ~limit:4 ~keys dag in
  let loose = Reglimit.run ~limit:max_int ~keys dag in
  let live r = Reglimit.max_live_of (Schedule.insns r.Reglimit.schedule) in
  check_bool
    (Printf.sprintf "tight (%d) < loose (%d)" (live tight) (live loose))
    true
    (live tight < live loose)

let test_max_live_of () =
  let insns =
    Array.of_list
      (parse "mov 1, %o1\nmov 2, %o2\nadd %o1, %o2, %o3\nst %o3, [%fp - 8]")
  in
  (* o1,o2 live into the add, whose result is born before its sources are
     released (the conservative no-register-reuse convention): peak 3 *)
  check_int "peak" 3 (Reglimit.max_live_of insns)


(* ------------------------------------------------------------------ *)
(* emission (delay slots + NOP padding) *)

let test_emit_fills_slot () =
  let block =
    block_of_asm "add %o1, 1, %o2\nadd %o3, 1, %o4\ncmp %o2, 0\nbe out"
  in
  let dag = Builder.build Builder.Table_forward Opts.default block in
  let r = Emit.emit (Schedule.identity dag) in
  check_bool "filled" true r.Emit.filled;
  check_bool "not padded" false r.Emit.padded;
  check_int "same instruction count" 4 (List.length r.Emit.insns);
  (* last instruction is the filler, second-to-last the branch *)
  let arr = Array.of_list r.Emit.insns in
  check_bool "branch before slot" true (Insn.is_branch arr.(2));
  check_bool "slot holds the independent add" true
    (arr.(3).Insn.op = Opcode.Add)

let test_emit_pads_with_nop () =
  let block = block_of_asm "cmp %o1, 0\nbe out" in
  let dag = Builder.build Builder.Table_forward Opts.default block in
  let r = Emit.emit (Schedule.identity dag) in
  check_bool "padded" true r.Emit.padded;
  let arr = Array.of_list r.Emit.insns in
  check_bool "trailing nop" true (arr.(Array.length arr - 1).Insn.op = Opcode.Nop)

let test_emit_plain_block () =
  let dag = dag_of_asm "add %o1, 1, %o2" in
  let r = Emit.emit (Schedule.identity dag) in
  check_bool "no fill, no pad" true (not r.Emit.filled && not r.Emit.padded)

let test_emit_program () =
  let opts = { Opts.default with Opts.strategy = Disambiguate.Symbolic } in
  let blocks =
    List.filteri (fun i _ -> i < 25) (Profiles.generate Profiles.grep)
  in
  let schedules =
    List.map
      (fun b -> Published.run ~opts Published.gibbons_muchnick b)
      blocks
  in
  let insns, filled, padded = Emit.emit_program schedules in
  check_bool "emits instructions" true (List.length insns > 0);
  check_bool "some slots handled" true (filled + padded > 0);
  (* renumbered *)
  List.iteri (fun i insn -> check_int "index" i insn.Insn.index) insns

(* ------------------------------------------------------------------ *)
(* the batch driver behind `schedtool batch` *)

(* a small multi-block program, exactly what the CLI feeds the driver *)
let batch_program () =
  Cfg_builder.partition
    (parse
       "ld [%fp - 8], %o1\n\
        add %o1, 1, %o2\n\
        cmp %o2, 0\n\
        be L1\n\
        nop\n\
        ld [%fp - 16], %o3\n\
        add %o3, %o2, %o4\n\
        st %o4, [%fp - 24]\n\
        cmp %o4, 5\n\
        bne L2\n\
        nop\n\
        fdivd %f0, %f2, %f4\n\
        faddd %f4, %f6, %f8\n\
        stdf %f8, [%fp - 32]")

let test_batch_cli_pipeline () =
  let blocks = batch_program () in
  check_bool "several blocks" true (List.length blocks >= 3);
  let results, report =
    Batch.run_with_report ~domains:2 Batch.section6 blocks
  in
  (* per-block lines come out in input order with consistent counts *)
  List.iter2
    (fun (b : Block.t) (r : Batch.result) ->
      check_int "id" b.Block.id r.Batch.block_id;
      check_int "insns" (Block.length b) r.Batch.insns;
      check_bool "scheduling does not regress" true
        (r.Batch.cycles <= r.Batch.original_cycles))
    blocks results;
  check_int "report blocks" (List.length blocks) report.Batch.blocks;
  check_int "report domains" 2 report.Batch.domains;
  (* the CLI's --json path: write, parse back, rebuild, compare *)
  let text = Stats.Json.to_string (Batch.report_to_json report) in
  match Stats.Json.of_string text with
  | Error msg -> Alcotest.failf "batch json does not parse: %s" msg
  | Ok json ->
      check_bool "batch json rebuilds" true
        (Batch.report_of_json json = Ok report)

let test_batch_matches_direct_pipeline () =
  (* the driver must compute exactly what the sequential code computes *)
  let blocks = batch_program () in
  let config = Batch.section6 in
  let results = Batch.run ~domains:2 config blocks in
  List.iter2
    (fun b (r : Batch.result) ->
      let dag = Builder.build config.Batch.algorithm config.Batch.opts b in
      let heuristics =
        List.map (fun k -> k.Engine.heuristic) config.Batch.engine.Engine.keys
      in
      let annot = Static_pass.compute_for heuristics dag in
      let order = Engine.run config.Batch.engine ~annot dag in
      Alcotest.(check (array int)) "same schedule" order r.Batch.order;
      check_int "same cycles"
        (Schedule.cycles (Schedule.make dag order))
        r.Batch.cycles)
    blocks results

(* ------------------------------------------------------------------ *)
(* decision tracing *)

let test_trace_matches_run () =
  let dag = dag_of_asm "ld [%fp - 8], %o1\nadd %o1, 1, %o2\nadd %o3, 1, %o4" in
  let annot = Static_pass.compute dag in
  let config = Published.engine_config Published.warren in
  let plain = Engine.run config ~annot dag in
  let traced, decisions = Engine.run_traced config ~annot dag in
  Alcotest.(check (array int)) "same schedule" plain traced;
  check_int "one decision per instruction" (Dag.length dag)
    (List.length decisions)

let test_trace_decides_with_right_heuristic () =
  (* two ready candidates split by max delay to leaf *)
  let dag =
    Builder.build Builder.Table_forward
      { Opts.default with Opts.model = Latency.deep_fp }
      (block_of_asm "fdivd %f0, %f2, %f4\nadd %o1, 1, %o2\nfaddd %f4, %f6, %f8")
  in
  let annot = Static_pass.compute dag in
  let config =
    { Engine.direction = Dyn_state.Forward; mode = Engine.Winnowing;
      keys = [ Engine.key Heuristic.Max_delay_to_leaf ] }
  in
  let _, decisions = Engine.run_traced config ~annot dag in
  match decisions with
  | first :: _ ->
      check_int "divide chosen first" 0 first.Engine.chosen;
      check_bool "trail nonempty" true (first.Engine.trail <> []);
      check_int "two candidates" 2 (List.length first.Engine.candidates)
  | [] -> Alcotest.fail "no decisions"

let test_trace_chosen_in_candidates () =
  let dag = Builder.build Builder.Table_forward Opts.default (random_block 3141) in
  let annot = Static_pass.compute dag in
  let _, decisions =
    Engine.run_traced (Published.engine_config Published.warren) ~annot dag
  in
  List.iter
    (fun (d : Engine.decision) ->
      check_bool "chosen among candidates" true
        (List.mem d.Engine.chosen d.Engine.candidates))
    decisions

let suite =
  [ quick "dot basic" test_dot_basic;
    quick "dot transitive dashed" test_dot_transitive_dashed;
    quick "dot highlight" test_dot_highlight;
    quick "dot escapes" test_dot_escapes_quotes;
    quick "gantt shows stalls" test_gantt_shows_stalls;
    quick "gantt no stall" test_gantt_no_stall_clean;
    quick "gantt line count" test_gantt_line_count;
    quick "reglimit valid" test_reglimit_valid;
    quick "reglimit reduces pressure" test_reglimit_reduces_pressure;
    quick "max_live_of" test_max_live_of;
    quick "emit fills slot" test_emit_fills_slot;
    quick "emit pads with nop" test_emit_pads_with_nop;
    quick "emit plain block" test_emit_plain_block;
    quick "emit program" test_emit_program;
    quick "batch cli pipeline" test_batch_cli_pipeline;
    quick "batch matches direct pipeline" test_batch_matches_direct_pipeline;
    quick "trace matches run" test_trace_matches_run;
    quick "trace right heuristic" test_trace_decides_with_right_heuristic;
    quick "trace chosen in candidates" test_trace_chosen_in_candidates ]
