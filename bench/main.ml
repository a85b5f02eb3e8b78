(** Benchmark harness: regenerates every table and figure of the paper.

    Usage: [main.exe [experiment ...]] where experiment is one of
    [table1 table2 table3 table4 table5 figure1 asymmetry pairing levels
    window transitive schedulers optimal global superscalar delayslots
    attributes reservation structure pressure obs].  With no arguments,
    everything runs in order.  [obs] measures the overhead of the
    in-library observability layer: the batch pipeline over the Table-3
    corpus with tracing off and on, interleaved, and writes BENCH_obs.json (target: under 5% overhead enabled).  The
    throughput of the whole pipeline and of the serve daemon is measured
    by perfbench/, not here.

    Timing methodology mirrors the paper's: each benchmark's full
    instruction-scheduling pipeline (DAG construction, intermediate
    heuristic pass, simple forward scheduling pass) is run [runs] times
    (default 5, override with DAGSCHED_BENCH_RUNS) and the mean wall time
    is reported.  Absolute numbers are host-relative; the paper's
    SPARCstation-2 seconds are printed alongside for shape comparison. *)

open Dagsched

let runs =
  match Sys.getenv_opt "DAGSCHED_BENCH_RUNS" with
  | Some s -> (try max 1 (int_of_string s) with _ -> 5)
  | None -> 5

let heading title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* ------------------------------------------------------------------ *)
(* the pipeline under test: §6's configuration, {!Batch.section6} — "a
   simple forward scheduling pass" driven by the backward static
   heuristics max path to leaf, max delay to leaf and max delay to child,
   with memory resolved at the granularity the paper's tables reflect:
   one independent resource per unique symbolic memory address
   expression *)

let { Batch.engine = section6_config; opts = paper_opts; _ } = Batch.section6

let section6_heuristics =
  List.map (fun k -> k.Engine.heuristic) section6_config.Engine.keys

let schedule_block alg opts block =
  let dag = Builder.build alg opts block in
  let annot = Static_pass.compute_for section6_heuristics dag in
  ignore (Engine.run section6_config ~annot dag);
  dag

let pipeline alg opts blocks () =
  List.map (fun b -> schedule_block alg opts b) blocks

let time_pipeline ?(runs = runs) alg opts blocks =
  Stats.time_runs ~runs (pipeline alg opts blocks)

(* ------------------------------------------------------------------ *)
(* Table 1 *)

let table1 () =
  heading "Table 1. Various heuristics (printed from the machine-readable taxonomy)";
  let t =
    Table.create ~title:""
      [ "category"; "heuristic"; "basis"; "pass"; "transitive-sensitive" ]
  in
  List.iter
    (fun h ->
      Table.add_row t
        [ Heuristic.category_to_string (Heuristic.category h);
          Heuristic.to_string h;
          Heuristic.basis_to_string (Heuristic.basis h);
          Heuristic.pass_to_string (Heuristic.calc_pass h);
          (if Heuristic.transitive_sensitive h then "**" else "") ])
    Heuristic.all_26;
  Table.print t;
  Printf.printf "(26 heuristics; ** = calculation affected by transitive arcs)\n"

(* ------------------------------------------------------------------ *)
(* Table 2 *)

let table2 () =
  heading "Table 2. Various scheduling algorithms (printed from the encodings)";
  let t =
    Table.create ~title:""
      [ "algorithm"; "dag construction"; "sched pass"; "combine";
        "heuristics (rank order)"; "postpass" ]
  in
  List.iter
    (fun spec ->
      let dag =
        match spec.Published.dag_algorithm with
        | Some a -> Builder.to_string a
        | None -> "n.g."
      in
      let dir =
        match spec.Published.sched_direction with
        | Dyn_state.Forward -> "f"
        | Dyn_state.Backward -> "b"
      in
      let mode =
        match spec.Published.mode with
        | Engine.Winnowing -> "winnowing"
        | Engine.Priority_fn -> "priority fn"
      in
      let keys =
        spec.Published.keys
        |> List.map (fun k ->
               let s =
                 match k.Engine.sense with
                 | Heuristic.Maximize -> ""
                 | Heuristic.Minimize -> " (inv)"
               in
               Heuristic.to_string k.Engine.heuristic ^ s)
        |> String.concat "; "
      in
      Table.add_row t
        [ spec.Published.name; dag; dir; mode; keys;
          (if spec.Published.postpass_fixup then "fixup" else "-") ])
    Published.all;
  Table.print t

(* ------------------------------------------------------------------ *)
(* Table 3 *)

let table3 () =
  heading "Table 3. Structural data for benchmarks (paper / measured)";
  let t =
    Table.create ~title:""
      [ "benchmark"; "blocks"; ""; "insts"; ""; "max i/b"; ""; "avg i/b"; "";
        "max mem/b"; ""; "avg mem/b"; "" ]
  in
  Table.add_row t
    [ ""; "paper"; "ours"; "paper"; "ours"; "paper"; "ours"; "paper"; "ours";
      "paper"; "ours"; "paper"; "ours" ];
  List.iter
    (fun p ->
      let s = Profiles.summarize p in
      let paper = p.Profiles.paper in
      Table.add_row t
        [ p.Profiles.name;
          string_of_int paper.Paper_data.blocks; string_of_int s.Summary.blocks;
          string_of_int paper.Paper_data.insts; string_of_int s.Summary.insns;
          string_of_int paper.Paper_data.ipb_max;
          string_of_int s.Summary.insns_per_block_max;
          Table.fmt_float paper.Paper_data.ipb_avg;
          Table.fmt_float s.Summary.insns_per_block_avg;
          string_of_int paper.Paper_data.mem_max;
          string_of_int s.Summary.mem_exprs_per_block_max;
          Table.fmt_float paper.Paper_data.mem_avg;
          Table.fmt_float s.Summary.mem_exprs_per_block_avg ])
    Profiles.all;
  Table.print t

(* ------------------------------------------------------------------ *)
(* Tables 4 and 5 *)

let structure_row dags =
  let s = Dag_stats.of_dags dags in
  [ string_of_int s.Dag_stats.children_per_inst_max;
    Table.fmt_float s.Dag_stats.children_per_inst_avg;
    string_of_int s.Dag_stats.arcs_per_block_max;
    Table.fmt_float s.Dag_stats.arcs_per_block_avg ]

let table4 () =
  heading "Table 4. Scheduling run times and structural data, n**2 approach";
  Printf.printf
    "(mean of %d runs; paper seconds are SPARCstation-2; fpppp beyond the\n\
    \ 1000-instruction window not run for n**2, exactly as in the paper)\n" runs;
  let t =
    Table.create ~title:""
      [ "benchmark"; "paper s"; "ours ms"; "children max (p/o)";
        "children avg (p/o)"; "arcs max (p/o)"; "arcs avg (p/o)" ]
  in
  List.iter
    (fun (row : Paper_data.table4_row) ->
      let profile = Option.get (Profiles.by_name row.Paper_data.benchmark) in
      let blocks = Profiles.generate profile in
      let secs, dags = time_pipeline Builder.N2_forward paper_opts blocks in
      match structure_row dags with
      | [ cmax; cavg; amax; aavg ] ->
          Table.add_row t
            [ row.Paper_data.benchmark;
              Table.fmt_float ~decimals:1 row.Paper_data.run_time;
              Table.fmt_float (1000.0 *. secs);
              Printf.sprintf "%d / %s" row.Paper_data.children_max cmax;
              Printf.sprintf "%.2f / %s" row.Paper_data.children_avg cavg;
              Printf.sprintf "%d / %s" row.Paper_data.arcs_max amax;
              Printf.sprintf "%.2f / %s" row.Paper_data.arcs_avg aavg ]
      | _ -> assert false)
    Paper_data.table4;
  Table.print t

let table5 () =
  heading "Table 5. Scheduling run times and structural data, table-building approaches";
  Printf.printf "(mean of %d runs)\n" runs;
  let t =
    Table.create ~title:""
      [ "benchmark"; "fwd paper s"; "fwd ours ms"; "bwd paper s"; "bwd ours ms";
        "children max (p/o)"; "children avg (p/o)"; "arcs max (p/o)";
        "arcs avg (p/o)" ]
  in
  List.iter
    (fun (row : Paper_data.table5_row) ->
      let profile = Option.get (Profiles.by_name row.Paper_data.benchmark) in
      let blocks = Profiles.generate profile in
      let fwd_s, dags = time_pipeline Builder.Table_forward paper_opts blocks in
      let bwd_s, _ = time_pipeline Builder.Table_backward paper_opts blocks in
      match structure_row dags with
      | [ cmax; cavg; amax; aavg ] ->
          Table.add_row t
            [ row.Paper_data.benchmark;
              Table.fmt_float ~decimals:1 row.Paper_data.time_forward;
              Table.fmt_float (1000.0 *. fwd_s);
              Table.fmt_float ~decimals:1 row.Paper_data.time_backward;
              Table.fmt_float (1000.0 *. bwd_s);
              Printf.sprintf "%d / %s" row.Paper_data.children_max cmax;
              Printf.sprintf "%.2f / %s" row.Paper_data.children_avg cavg;
              Printf.sprintf "%d / %s" row.Paper_data.arcs_max amax;
              Printf.sprintf "%.2f / %s" row.Paper_data.arcs_avg aavg ]
      | _ -> assert false)
    Paper_data.table5;
  Table.print t

(* ------------------------------------------------------------------ *)
(* Figure 1 *)

let figure1_block () =
  let insns =
    Parser.parse_program
      "fdivd %f0, %f2, %f4\nfaddd %f6, %f8, %f0\nfaddd %f0, %f4, %f10"
    |> List.mapi (fun i insn -> Insn.with_index insn i)
  in
  { Block.id = 0; insns = Array.of_list insns }

let figure1 () =
  heading "Figure 1. Importance of transitive arcs";
  Printf.printf
    "1: DIVF f0,f2 -> f4 (20 cycles)   2: ADDF f6,f8 -> f0   3: ADDF f0,f4 -> f10\n\
     arc 1->2 is WAR (1 cycle); arc 2->3 is RAW (4); arc 1->3 is RAW (20, transitive)\n\n";
  let opts = { Opts.default with Opts.model = Latency.deep_fp } in
  let t =
    Table.create ~title:""
      [ "builder"; "arcs"; "retains 1->3"; "EST(3)"; "sched cycles" ]
  in
  List.iter
    (fun alg ->
      let block = figure1_block () in
      let dag = Builder.build alg opts block in
      let annot = Static_pass.compute dag in
      let order = Engine.run section6_config ~annot dag in
      let sched = Schedule.make dag order in
      Table.add_row t
        [ Builder.to_string alg;
          string_of_int (Dag.n_arcs dag);
          (if Dag.has_arc dag ~src:0 ~dst:2 then "yes" else "NO");
          string_of_int annot.Annot.est.(2);
          string_of_int (Schedule.cycles sched) ])
    Builder.all;
  Table.print t;
  Printf.printf
    "The table builders retain the 20-cycle RAW arc 1->3; the transitive-arc\n\
     avoiders (landskov, reach-backward) drop it and miscompute EST(3) as 5\n\
     instead of 20 — the paper's conclusion 3.\n"

(* ------------------------------------------------------------------ *)
(* the forward/backward asymmetry on fpppp (end of paper's section 6) *)

let asymmetry () =
  heading "fpppp forward/backward asymmetry (end of section 6)";
  Printf.printf
    "The paper found backward table building slightly slower on full fpppp:\n\
     symbolic memory expressions sit toward the end of the giant block, so\n\
     the backward pass meets them early and scans a larger resource table\n\
     for the rest of the block.  The effect needs a strategy that actually\n\
     scans may-aliasing entries (base-offset); under the symbolic strategy\n\
     the table is a hash table and the effect vanishes.\n\
     (construction only, mean of %d runs)\n" runs;
  let blocks = Profiles.generate Profiles.fpppp in
  let t =
    Table.create ~title:"" [ "strategy"; "fwd ms"; "bwd ms"; "bwd/fwd" ]
  in
  List.iter
    (fun strategy ->
      let opts = { Opts.default with Opts.strategy } in
      let time alg =
        let secs, _ =
          Stats.time_runs ~runs (fun () ->
              List.iter (fun b -> ignore (Builder.build alg opts b)) blocks)
        in
        1000.0 *. secs
      in
      let fwd = time Builder.Table_forward in
      let bwd = time Builder.Table_backward in
      Table.add_row t
        [ Disambiguate.to_string strategy; Table.fmt_float fwd;
          Table.fmt_float bwd; Table.fmt_float (bwd /. Float.max 1e-9 fwd) ])
    [ Disambiguate.Base_offset; Disambiguate.Symbolic ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* conclusion 6: pairing construction direction vs scheduling direction *)

let pairing () =
  heading "Pairing ablation (conclusion 6): DAG pass direction vs scheduling direction";
  Printf.printf "(full pipeline, mean of %d runs)\n" runs;
  let t =
    Table.create ~title:"" [ "workload"; "dag pass"; "sched pass"; "time ms" ]
  in
  let sched_config direction = { section6_config with Engine.direction } in
  List.iter
    (fun profile ->
      let blocks = Profiles.generate profile in
      List.iter
        (fun (alg, alg_name) ->
          List.iter
            (fun (dir, dir_name) ->
              let work () =
                List.iter
                  (fun b ->
                    let dag = Builder.build alg paper_opts b in
                    let annot = Static_pass.compute_for section6_heuristics dag in
                    ignore (Engine.run (sched_config dir) ~annot dag))
                  blocks
              in
              let secs, () = Stats.time_runs ~runs work in
              Table.add_row t
                [ profile.Profiles.name; alg_name; dir_name;
                  Table.fmt_float (1000.0 *. secs) ])
            [ (Dyn_state.Forward, "forward"); (Dyn_state.Backward, "backward") ])
        [ (Builder.Table_forward, "forward"); (Builder.Table_backward, "backward") ])
    [ Profiles.linpack; Profiles.fpppp ];
  Table.print t;
  Printf.printf
    "The paper's conjecture was that construction should pair with an\n\
     opposite-direction scheduling pass; it found (and we reproduce) a\n\
     negligible difference across the four pairings.\n"

(* ------------------------------------------------------------------ *)
(* conclusion 4: level lists vs reverse list walk *)

let levels () =
  heading "Heuristic-pass ablation (conclusion 4): level lists vs reverse walk";
  Printf.printf "(backward static pass only, mean of %d runs)\n" runs;
  let t = Table.create ~title:"" [ "workload"; "traversal"; "time ms" ] in
  List.iter
    (fun profile ->
      let blocks = Profiles.generate profile in
      let dags =
        List.map
          (fun b -> Builder.build Builder.Table_forward paper_opts b)
          blocks
      in
      List.iter
        (fun (traversal, name) ->
          let work () =
            List.iter
              (fun dag -> ignore (Static_pass.backward_only ~traversal dag))
              dags
          in
          let secs, () = Stats.time_runs ~runs work in
          Table.add_row t
            [ profile.Profiles.name; name; Table.fmt_float (1000.0 *. secs) ])
        [ (Static_pass.Reverse_walk, "reverse walk");
          (Static_pass.Level_lists, "level lists") ])
    [ Profiles.cccp; Profiles.nasa7; Profiles.fpppp ];
  Table.print t;
  Printf.printf
    "Level lists buy nothing over a reverse walk of the instruction list\n\
     (and pay for building the lists) — the paper's conclusion 4.\n"

(* ------------------------------------------------------------------ *)
(* §6 window-size remark: where the n**2 knee is *)

let window () =
  heading "Window ablation: n**2 vs table building as block size grows";
  Printf.printf
    "(single straight-line block per size, construction only, mean of %d runs)\n"
    runs;
  let t =
    Table.create ~title:""
      [ "block size"; "n2 ms"; "table-fwd ms"; "table-bwd ms"; "n2/table ratio" ]
  in
  List.iter
    (fun (size, block) ->
      let time alg =
        let secs, _ =
          Stats.time_runs ~runs (fun () -> Builder.build alg paper_opts block)
        in
        1000.0 *. secs
      in
      let n2 = time Builder.N2_forward in
      let tf = time Builder.Table_forward in
      let tb = time Builder.Table_backward in
      Table.add_row t
        [ string_of_int size; Table.fmt_float ~decimals:3 n2;
          Table.fmt_float ~decimals:3 tf; Table.fmt_float ~decimals:3 tb;
          Table.fmt_float (n2 /. Float.max 1e-9 tf) ])
    (Sweep.blocks ~sizes:[ 16; 32; 64; 128; 256; 512; 1024; 2048; 4000 ] ());
  Table.print t;
  Printf.printf
    "The paper bounds practical n**2 windows at 300-400 instructions on its\n\
     hardware; the quadratic/near-linear split is hardware-independent.\n"

(* ------------------------------------------------------------------ *)
(* conclusion 3 at scale: schedule quality with and without transitive arcs *)

let transitive () =
  heading "Transitive-arc ablation (conclusion 3): schedule quality";
  Printf.printf
    "(simple forward scheduling under deep_fp; cycles summed over all blocks)\n";
  let opts = { paper_opts with Opts.model = Latency.deep_fp } in
  let schedule_cycles alg b =
    let dag = Builder.build alg opts b in
    let annot = Static_pass.compute_for section6_heuristics dag in
    Schedule.cycles (Schedule.make dag (Engine.run section6_config ~annot dag))
  in
  let t =
    Table.create ~title:""
      [ "workload"; "original"; "table-forward"; "landskov (no trans. arcs)";
        "landskov regressions" ]
  in
  List.iter
    (fun profile ->
      let blocks = Profiles.generate profile in
      let original =
        List.fold_left
          (fun acc b -> acc + Pipeline.cycles Latency.deep_fp b.Block.insns)
          0 blocks
      in
      let table_cycles =
        List.fold_left (fun acc b -> acc + schedule_cycles Builder.Table_forward b) 0 blocks
      in
      let red_cycles, regressions =
        List.fold_left
          (fun (cycles, regr) b ->
            let reference = schedule_cycles Builder.Table_forward b in
            let c = schedule_cycles Builder.Landskov b in
            (cycles + c, regr + if c > reference then 1 else 0))
          (0, 0) blocks
      in
      Table.add_row t
        [ profile.Profiles.name; string_of_int original;
          string_of_int table_cycles; string_of_int red_cycles;
          string_of_int regressions ])
    [ Profiles.linpack; Profiles.lloops; Profiles.tomcatv ];
  Table.print t;
  Printf.printf
    "Blocks where dropping transitive arcs mis-schedules (regressions > 0)\n\
     carry Figure-1-style WAR-covered RAW arcs.\n"

(* ------------------------------------------------------------------ *)
(* extra: the six published algorithms compared on the workloads *)

let schedulers () =
  heading "Published algorithms (Table 2) on the generated workloads";
  Printf.printf "(simulated cycles under deep_fp, summed over all blocks)\n";
  let opts = { Opts.default with Opts.model = Latency.deep_fp } in
  let t =
    Table.create ~title:""
      ("workload" :: "original"
      :: List.map (fun s -> s.Published.short) Published.all)
  in
  List.iter
    (fun profile ->
      let blocks = Profiles.generate profile in
      let original =
        List.fold_left
          (fun acc b -> acc + Pipeline.cycles Latency.deep_fp b.Block.insns)
          0 blocks
      in
      let per_spec spec =
        List.fold_left
          (fun acc b -> acc + Schedule.cycles (Published.run ~opts spec b))
          0 blocks
      in
      Table.add_row t
        (profile.Profiles.name :: string_of_int original
        :: List.map (fun s -> string_of_int (per_spec s)) Published.all))
    [ Profiles.grep; Profiles.linpack; Profiles.lloops; Profiles.tomcatv ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* observability overhead: the batch pipeline with tracing off and on
   over the Table-3 corpus, with a machine-readable BENCH_obs.json *)

let obs_bench () =
  heading "Observability overhead: off vs trace";
  let corpus = Profiles.corpus Profiles.benchmarks in
  let blocks = List.concat_map snd corpus in
  Printf.printf
    "(full batch pipeline over the Table-3 corpus — %d programs, %d blocks —\n\
    \ single domain, mean of %d runs; target: enabled overhead under 5%%;\n\
    \ results differentially checked against the unrecorded run)\n"
    (List.length corpus) (List.length blocks) runs;
  let trace_off () =
    Trace.disable ();
    Trace.reset ()
  in
  (* Each timed run resets the recorder first: a real traced run holds
     one run's spans, so letting them accumulate across the benchmark's
     repetitions would charge the later runs GC pressure no real run
     pays.  The two configurations are interleaved within each
     iteration — on a shared host the baseline itself drifts by more
     than the overhead being measured, and pairing cancels the drift. *)
  let timed_run ~traced =
    trace_off ();
    if traced then Trace.enable ();
    let t0 = Clock.now () in
    let r = Batch.run ~domains:1 Batch.section6 blocks in
    (Clock.since t0, r)
  in
  (* untimed warmup so no configuration pays first-run cache/GC costs *)
  ignore (timed_run ~traced:false);
  (* the traced run goes last, so after the loop the recorder holds one
     such run's spans *)
  let off_total = ref 0.0 and on_total = ref 0.0 in
  let off_results = ref [] and on_results = ref [] in
  for _ = 1 to runs do
    let d, r = timed_run ~traced:false in
    off_total := !off_total +. d;
    off_results := r;
    let d, r = timed_run ~traced:true in
    on_total := !on_total +. d;
    on_results := r
  done;
  let off_s = !off_total /. float_of_int runs
  and on_s = !on_total /. float_of_int runs in
  let spans = Trace.snapshot () in
  trace_off ();
  (* inline differential check: tracing may change no scheduling result *)
  List.iter2
    (fun (a : Batch.result) (b : Batch.result) ->
      assert (Batch.strip_timing a = Batch.strip_timing b))
    !off_results !on_results;
  let overhead_pct = 100.0 *. ((on_s /. Float.max 1e-9 off_s) -. 1.0) in
  let t = Table.create ~title:"" [ "config"; "ms/run"; "overhead %" ] in
  Table.add_row t [ "disabled"; Table.fmt_float (1000.0 *. off_s); "-" ];
  Table.add_row t
    [ "trace"; Table.fmt_float (1000.0 *. on_s);
      Table.fmt_float overhead_pct ];
  Table.print t;
  Printf.printf "%d spans recorded per traced run\n" (List.length spans);
  if overhead_pct > 5.0 then
    Printf.printf
      "(overhead above the 5%% target on this host — the run pays ~125k\n\
      \ span clock reads against the baseline; on a slow single-core\n\
      \ container that ratio is unfavourable, and the target is judged on\n\
      \ an unloaded multicore host)\n";
  let json =
    Stats.Json.Obj
      [ ("experiment", Stats.Json.String "obs");
        ("runs", Stats.Json.Int runs);
        ("blocks", Stats.Json.Int (List.length blocks));
        ("disabled_s", Stats.Json.Float off_s);
        ("enabled_s", Stats.Json.Float on_s);
        ("overhead_pct", Stats.Json.Float overhead_pct);
        ("spans", Stats.Json.Int (List.length spans));
        ( "phases",
          Stats.Json.List
            (List.map
               (fun (p : Trace.phase_stat) ->
                 Stats.Json.Obj
                   [ ("phase", Stats.Json.String p.Trace.phase);
                     ("spans", Stats.Json.Int p.Trace.spans);
                     ("total_us", Stats.Json.Float p.Trace.total_us);
                     ("max_us", Stats.Json.Float p.Trace.max_us);
                     ("minor_words", Stats.Json.Int p.Trace.minor_words) ])
               (Trace.summary spans)) ) ]
  in
  let text = Stats.Json.to_string json in
  (match Stats.Json.of_string text with
  | Ok _ -> ()
  | Error msg -> failwith ("BENCH_obs.json does not parse back: " ^ msg));
  let path = "BENCH_obs.json" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc text;
      output_char oc '\n');
  Printf.printf "wrote %s\n" path

(* ------------------------------------------------------------------ *)
(* extension (paper section 7 future work): branch-and-bound optimum *)

let optimal_bench () =
  heading "Optimal vs heuristic scheduling on small blocks (paper's planned extension)";
  Printf.printf
    "(40 random FP blocks of 6-14 instructions, deep_fp model; every order\n\
    \ timed by the pipeline simulator, the search's own cost model)\n";
  let opts =
    { Opts.default with Opts.model = Latency.deep_fp;
      strategy = Disambiguate.Symbolic }
  in
  let blocks =
    List.init 40 (fun i ->
        let rng = Prng.create (5000 + i) in
        let size = 6 + Prng.int rng 9 in
        Gen.block rng ~params:Gen.fp_loops ~id:i ~size ())
  in
  let cases =
    List.map
      (fun b ->
        let dag = Builder.build Builder.Table_forward opts b in
        (dag, Optimal.run dag))
      blocks
  in
  let exhaustive = List.for_all (fun (_, r) -> r.Optimal.optimal) cases in
  let t =
    Table.create ~title:""
      [ "algorithm"; "blocks optimal"; "avg gap %"; "max gap %" ]
  in
  let total_opt = List.fold_left (fun a (_, r) -> a + r.Optimal.cycles) 0 cases in
  List.iter
    (fun spec ->
      let hits = ref 0 and gap_sum = ref 0.0 and gap_max = ref 0.0 in
      List.iter
        (fun (dag, r) ->
          let s = Published.run_on_dag spec dag in
          let c = Schedule.cycles s in
          if c = r.Optimal.cycles then incr hits;
          let gap =
            100.0
            *. float_of_int (c - r.Optimal.cycles)
            /. float_of_int (max 1 r.Optimal.cycles)
          in
          gap_sum := !gap_sum +. gap;
          if gap > !gap_max then gap_max := gap)
        cases;
      Table.add_row t
        [ spec.Published.name;
          Printf.sprintf "%d/%d" !hits (List.length cases);
          Table.fmt_float (!gap_sum /. float_of_int (List.length cases));
          Table.fmt_float !gap_max ])
    Published.all;
  Table.print t;
  Printf.printf
    "(search exhaustive on all blocks: %b; optimal total %d cycles)\n"
    exhaustive total_opt

(* ------------------------------------------------------------------ *)
(* extension: inherited cross-block latencies (global information) *)

let global_bench () =
  heading "Inherited cross-block latencies (paper's planned extension)";
  Printf.printf
    "(chained blocks scored on the pipeline simulator, which carries\n\
    \ machine state across block boundaries either way)\n";
  let config =
    { Engine.direction = Dyn_state.Forward; mode = Engine.Winnowing;
      keys =
        [ Engine.key Heuristic.Earliest_execution_time;
          Engine.key Heuristic.Max_delay_to_leaf ] }
  in
  let t =
    Table.create ~title:""
      [ "workload"; "original"; "local scheduling"; "inherited latencies";
        "improvement %" ]
  in
  List.iter
    (fun profile ->
      let opts =
        { Opts.default with Opts.model = Latency.deep_fp;
          strategy = Disambiguate.Symbolic }
      in
      let blocks = Profiles.generate profile in
      let original =
        Pipeline.cycles Latency.deep_fp
          (Array.concat (List.map (fun b -> b.Block.insns) blocks))
      in
      let cycles inherit_latencies =
        let _, insns =
          Global.schedule_chain ~inherit_latencies ~config ~opts blocks
        in
        Global.chain_cycles Latency.deep_fp insns
      in
      let local = cycles false in
      let inherited = cycles true in
      Table.add_row t
        [ profile.Profiles.name; string_of_int original; string_of_int local;
          string_of_int inherited;
          Table.fmt_float
            (100.0 *. float_of_int (local - inherited) /. float_of_int local) ])
    [ Profiles.linpack; Profiles.lloops; Profiles.tomcatv ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* extension: superscalar issue and the alternate-type heuristic *)

let superscalar_bench () =
  heading "Superscalar issue and the alternate-type heuristic";
  Printf.printf
    "(lloops profile under simple_risc; dual issue requires distinct\n\
    \ function units per cycle, which class alternation provides)\n";
  let opts = { Opts.default with Opts.strategy = Disambiguate.Symbolic } in
  let blocks = Profiles.generate Profiles.lloops in
  let schedule_with keys block =
    let dag = Builder.build Builder.Table_forward opts block in
    let annot = Static_pass.compute_for (List.map (fun k -> k.Engine.heuristic) keys) dag in
    let config =
      { Engine.direction = Dyn_state.Forward; mode = Engine.Winnowing; keys }
    in
    Schedule.insns (Schedule.make dag (Engine.run config ~annot dag))
  in
  let base_keys =
    [ Engine.key Heuristic.Earliest_execution_time;
      Engine.key Heuristic.Max_delay_to_leaf ]
  in
  let alt_keys =
    [ Engine.key Heuristic.Earliest_execution_time;
      Engine.key Heuristic.Alternate_type;
      Engine.key Heuristic.Max_delay_to_leaf ]
  in
  let t =
    Table.create ~title:""
      [ "schedule"; "width 1"; "width 2"; "width 4"; "dual-issue rate" ]
  in
  let row name insns_of =
    let totals = Array.make 3 0 in
    let rate_sum = ref 0.0 in
    List.iter
      (fun b ->
        let insns = insns_of b in
        List.iteri
          (fun i width ->
            totals.(i) <-
              totals.(i) + Pipeline.cycles ~width Latency.simple_risc insns)
          [ 1; 2; 4 ];
        rate_sum :=
          !rate_sum
          +. Pipeline.dual_issue_rate
               (Pipeline.run ~width:2 Latency.simple_risc insns))
      blocks;
    Table.add_row t
      [ name; string_of_int totals.(0); string_of_int totals.(1);
        string_of_int totals.(2);
        Table.fmt_float (!rate_sum /. float_of_int (List.length blocks)) ]
  in
  row "original order" (fun b -> b.Block.insns);
  row "EET + critical path" (schedule_with base_keys);
  row "with alternate type" (schedule_with alt_keys);
  Table.print t

(* ------------------------------------------------------------------ *)
(* extension: delay-slot filling *)

let delayslots () =
  heading "Branch delay-slot filling";
  Printf.printf
    "(post-scheduling filler; a filled slot saves the NOP a delayed-branch\n\
    \ machine would otherwise execute)\n";
  let opts = { Opts.default with Opts.strategy = Disambiguate.Symbolic } in
  let t =
    Table.create ~title:""
      [ "workload"; "scheduler"; "branches"; "slots filled"; "fill rate %" ]
  in
  List.iter
    (fun profile ->
      let blocks = Profiles.generate profile in
      List.iter
        (fun spec ->
          let schedules = List.map (fun b -> Published.run ~opts spec b) blocks in
          let branches, filled = Delay_slot.fill_rate schedules in
          Table.add_row t
            [ profile.Profiles.name; spec.Published.name;
              string_of_int branches; string_of_int filled;
              Table.fmt_float
                (100.0 *. float_of_int filled /. float_of_int (max 1 branches)) ])
        [ Published.gibbons_muchnick; Published.krishnamurthy ])
    [ Profiles.grep; Profiles.cccp; Profiles.lloops ];
  Table.print t;
  Printf.printf
    "(Krishnamurthy's published algorithm ran exactly such a postpass\n\
    \ fixup to fill remaining slots, per Table 2)\n"

(* ------------------------------------------------------------------ *)
(* extension (future work #2): which attributes let heuristics win *)

let attributes () =
  heading "Block attributes vs heuristic performance (paper's planned extension)";
  Printf.printf
    "(blocks of the FP workloads bucketed by available parallelism =\n\
    \ instructions / critical-path length; winner = fewest simulated cycles)\n";
  let opts =
    { Opts.default with Opts.model = Latency.deep_fp;
      strategy = Disambiguate.Symbolic }
  in
  let blocks =
    List.concat_map Profiles.generate
      [ Profiles.linpack; Profiles.lloops; Profiles.tomcatv ]
    |> List.filter (fun b -> Block.length b >= 4)
  in
  let bucket_of b =
    let dag = Builder.build Builder.Table_forward opts b in
    let annot = Static_pass.compute_for [ Heuristic.Max_delay_to_leaf ] dag in
    let cp = max 1 annot.Annot.critical_path_length in
    let par = float_of_int (Block.length b) /. float_of_int cp in
    if par < 0.25 then 0 else if par < 0.5 then 1 else 2
  in
  let bucket_names = [| "serial (<0.25)"; "mixed (0.25-0.5)"; "parallel (>0.5)" |] in
  let wins = Array.make_matrix 3 (List.length Published.all) 0 in
  let counts = Array.make 3 0 in
  List.iter
    (fun b ->
      let bucket = bucket_of b in
      counts.(bucket) <- counts.(bucket) + 1;
      let cycles =
        List.map (fun spec -> Schedule.cycles (Published.run ~opts spec b)) Published.all
      in
      let best = List.fold_left min max_int cycles in
      List.iteri
        (fun i c -> if c = best then wins.(bucket).(i) <- wins.(bucket).(i) + 1)
        cycles)
    blocks;
  let t =
    Table.create ~title:""
      ("parallelism bucket" :: "blocks"
      :: List.map (fun s -> s.Published.short) Published.all)
  in
  Array.iteri
    (fun bucket name ->
      Table.add_row t
        (name :: string_of_int counts.(bucket)
        :: Array.to_list (Array.map string_of_int wins.(bucket))))
    bucket_names;
  Table.print t;
  Printf.printf
    "(ties counted for every winner; serial blocks leave heuristics little\n\
    \ room, parallel blocks separate the critical-path-driven algorithms)\n"

(* ------------------------------------------------------------------ *)
(* extension: reservation-table scheduling vs the busy-time heuristic *)

let reservation_bench () =
  heading "Reservation-table scheduling vs busy-time heuristics (section 1)";
  Printf.printf
    "(divide-heavy FP blocks under deep_fp: the non-pipelined FDIV unit is\n\
    \ exactly reserved by the table, only estimated by the heuristic)\n";
  let opts =
    { Opts.default with Opts.model = Latency.deep_fp;
      strategy = Disambiguate.Symbolic }
  in
  let div_heavy seed size =
    let rng = Prng.create seed in
    let params =
      { Gen.fp_straightline with Gen.pinned_uses = 0.0; with_branch = false }
    in
    Gen.block rng ~params ~id:seed ~size ()
  in
  let t =
    Table.create ~title:""
      [ "block"; "original"; "list + fp-busy heuristic"; "reservation table" ]
  in
  List.iteri
    (fun i size ->
      let block = div_heavy (7000 + i) size in
      let dag = Builder.build Builder.Table_forward opts block in
      let heuristic =
        let config =
          { Engine.direction = Dyn_state.Forward; mode = Engine.Priority_fn;
            keys =
              [ Engine.key Heuristic.Earliest_execution_time;
                Engine.key Heuristic.Fp_unit_busy;
                Engine.key Heuristic.Max_delay_to_leaf ] }
        in
        let annot = Static_pass.compute_for (List.map (fun k -> k.Engine.heuristic) config.Engine.keys) dag in
        Schedule.cycles (Schedule.make dag (Engine.run config ~annot dag))
      in
      let resv =
        Schedule.cycles (Resv_sched.schedule dag (Resv_sched.run dag))
      in
      Table.add_row t
        [ Printf.sprintf "fp-%d (%d insns)" i size;
          string_of_int (Pipeline.cycles Latency.deep_fp block.Block.insns);
          string_of_int heuristic; string_of_int resv ])
    [ 20; 40; 60; 80 ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* conclusion 7: DAG structural statistics for future research *)

let structure () =
  heading "DAG structural statistics (conclusion 7)";
  Printf.printf
    "(table-forward DAGs under the symbolic strategy; depth = longest path\n\
    \ in arcs, width = largest level, parallelism = nodes/(depth+1))\n";
  let t =
    Table.create ~title:""
      [ "workload"; "blocks"; "avg depth"; "max depth"; "avg width";
        "max width"; "avg parallelism"; "avg roots"; "transitive arcs" ]
  in
  List.iter
    (fun profile ->
      let dags =
        List.map
          (fun b -> Builder.build Builder.Table_forward paper_opts b)
          (Profiles.generate profile)
      in
      let s = Dag_stats.shape_summary dags in
      Table.add_row t
        [ profile.Profiles.name; string_of_int s.Dag_stats.blocks_;
          Table.fmt_float s.Dag_stats.avg_depth;
          string_of_int s.Dag_stats.max_depth;
          Table.fmt_float s.Dag_stats.avg_width;
          string_of_int s.Dag_stats.max_width;
          Table.fmt_float s.Dag_stats.avg_parallelism;
          Table.fmt_float s.Dag_stats.avg_roots;
          string_of_int s.Dag_stats.total_transitive ])
    Profiles.all;
  Table.print t

(* ------------------------------------------------------------------ *)
(* extension: register-limited scheduling (Goodman & Hsu integration) *)

let pressure () =
  heading "Register-pressure-limited scheduling (Goodman & Hsu style)";
  Printf.printf
    "(wide FP blocks under deep_fp; the limit-aware scheduler switches to\n\
    \ pressure reduction as the live count approaches the limit)\n";
  let opts =
    { Opts.default with Opts.model = Latency.deep_fp;
      strategy = Disambiguate.Symbolic }
  in
  let keys =
    [ Engine.key Heuristic.Earliest_execution_time;
      Engine.key Heuristic.Max_delay_to_leaf ]
  in
  let t =
    Table.create ~title:""
      [ "limit"; "cycles"; "max live"; "cycles (no limit)"; "max live (no limit)" ]
  in
  (* eight independent load/load/multiply/store strands: hoisting every
     load first is fastest but maximizes simultaneously live values *)
  let strand k =
    Printf.sprintf
      "lddf [%%fp - %d], %%f%d\nlddf [%%fp - %d], %%f%d\nfmuld %%f%d, %%f%d, %%f%d\nstdf %%f%d, [%%fp - %d]\n"
      (16 * k) (4 * (k mod 4))
      ((16 * k) + 8) ((4 * (k mod 4)) + 2)
      (4 * (k mod 4)) ((4 * (k mod 4)) + 2)
      (16 + (2 * (k mod 8))) (16 + (2 * (k mod 8)))
      (256 + (8 * k))
  in
  let source = String.concat "" (List.init 8 (fun k -> strand (k + 1))) in
  let block =
    List.hd (Cfg_builder.partition (Parser.parse_program source))
  in
  let dag = Builder.build Builder.Table_forward opts block in
  let unlimited = Reglimit.run ~limit:max_int ~keys dag in
  let u_cycles = Schedule.cycles unlimited.Reglimit.schedule in
  let u_live = Reglimit.max_live_of (Schedule.insns unlimited.Reglimit.schedule) in
  List.iter
    (fun limit ->
      let r = Reglimit.run ~limit ~keys dag in
      Table.add_row t
        [ string_of_int limit;
          string_of_int (Schedule.cycles r.Reglimit.schedule);
          string_of_int (Reglimit.max_live_of (Schedule.insns r.Reglimit.schedule));
          string_of_int u_cycles; string_of_int u_live ])
    [ 4; 6; 8; 12; 16 ];
  Table.print t;
  Printf.printf
    "(tighter limits trade cycles for fewer simultaneously live values,\n\
    \ the premise of integrated allocation/scheduling the paper cites)\n"

let experiments =
  [ ("table1", table1); ("table2", table2); ("table3", table3);
    ("table4", table4); ("table5", table5); ("figure1", figure1);
    ("asymmetry", asymmetry); ("pairing", pairing); ("levels", levels);
    ("window", window);
    ("transitive", transitive); ("schedulers", schedulers);
    ("optimal", optimal_bench); ("global", global_bench);
    ("superscalar", superscalar_bench); ("delayslots", delayslots);
    ("attributes", attributes); ("reservation", reservation_bench);
    ("structure", structure); ("pressure", pressure);
    ("obs", obs_bench) ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst experiments
  in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown experiment %S; available: %s\n" name
            (String.concat ", " (List.map fst experiments));
          exit 1)
    requested
