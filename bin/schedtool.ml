(** schedtool — command-line driver for the dagsched library.

    {v
    schedtool gen -p linpack              # emit a Table-3 workload as assembly
    schedtool stats file.s                # Table-3 structural statistics
    schedtool build -a table-forward file.s    # DAG construction + stats
    schedtool schedule -A warren file.s   # run a published scheduler
    schedtool compare file.s              # all builders x all schedulers
    v} *)

open Dagsched

(* exit 2 is bad input: an unreadable file or a parse error, each
   naming the file *)
let read_input path =
  try
    match path with
    | "-" -> In_channel.input_all In_channel.stdin
    | path -> In_channel.with_open_text path In_channel.input_all
  with Sys_error msg ->
    Printf.eprintf "input error: %s\n" msg;
    exit 2

let load_blocks path =
  let text = read_input path in
  match Parser.parse_program_result text with
  | Ok insns -> Cfg_builder.partition insns
  | Error msg ->
      Printf.eprintf "parse error: %s: %s\n" path msg;
      exit 2

(* ------------------------------------------------------------------ *)
(* cmdliner converters *)

open Cmdliner

let profile_conv =
  let parse s =
    match Profiles.by_name s with
    | Some p -> Ok p
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown profile %S (available: %s)" s
               (String.concat ", "
                  (List.map (fun p -> p.Profiles.name) Profiles.all))))
  in
  Arg.conv (parse, fun fmt p -> Format.pp_print_string fmt p.Profiles.name)

let builder_conv =
  let parse s =
    match Builder.of_string s with
    | Some a -> Ok a
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown builder %S (available: %s)" s
               (String.concat ", " (List.map Builder.to_string Builder.all))))
  in
  Arg.conv (parse, fun fmt a -> Format.pp_print_string fmt (Builder.to_string a))

let strategy_conv =
  let parse s =
    match Disambiguate.of_string s with
    | Some x -> Ok x
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown strategy %S (available: %s)" s
               (String.concat ", " (List.map Disambiguate.to_string Disambiguate.all))))
  in
  Arg.conv (parse, fun fmt s -> Format.pp_print_string fmt (Disambiguate.to_string s))

let model_conv =
  let parse s =
    match Latency.by_name s with
    | Some m -> Ok m
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown model %S (available: %s)" s
               (String.concat ", "
                  (List.map (fun m -> m.Latency.name) Latency.all_models))))
  in
  Arg.conv (parse, fun fmt m -> Format.pp_print_string fmt m.Latency.name)

let scheduler_conv =
  let parse s =
    match Published.by_short s with
    | Some x -> Ok x
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown scheduler %S (available: %s)" s
               (String.concat ", "
                  (List.map (fun x -> x.Published.short) Published.all))))
  in
  Arg.conv (parse, fun fmt s -> Format.pp_print_string fmt s.Published.short)

let file_arg =
  Arg.(value & pos 0 string "-" & info [] ~docv:"FILE" ~doc:"Assembly input ('-' for stdin).")

let model_arg =
  Arg.(
    value
    & opt model_conv Latency.simple_risc
    & info [ "m"; "model" ] ~docv:"MODEL" ~doc:"Latency model.")

let strategy_arg =
  Arg.(
    value
    & opt strategy_conv Disambiguate.Base_offset
    & info [ "s"; "strategy" ] ~docv:"STRATEGY"
        ~doc:"Memory disambiguation strategy.")

let builder_arg =
  Arg.(
    value
    & opt builder_conv Builder.Table_forward
    & info [ "a"; "algorithm" ] ~docv:"ALG" ~doc:"DAG construction algorithm.")

let opts_of model strategy = { Opts.default with Opts.model; strategy }

(* ------------------------------------------------------------------ *)
(* observability: --trace / --metrics / --resource / --explain / --log /
   --log-level / --progress on batch and serve *)

let trace_conv =
  let parse s =
    if s = "" then Error (`Msg "trace path must not be empty") else Ok s
  in
  Arg.conv (parse, Format.pp_print_string)

let trace_arg =
  Arg.(
    value
    & opt (some trace_conv) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Record every pipeline phase as spans and write a Chrome \
              trace-event JSON timeline to $(docv) (loadable in Perfetto \
              at ui.perfetto.dev or chrome://tracing), plus a per-phase \
              summary table on stderr.  Report outputs are byte-identical \
              with and without tracing.")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Collect pipeline counters and histograms (arcs added, \
              transitive arcs pruned, table probes, ready-list lengths, \
              stall cycles, pool latencies) and print them on stderr \
              after the run, with p50/p95/p99 columns per histogram.")

let resource_arg =
  Arg.(
    value & flag
    & info [ "resource" ]
        ~doc:"Profile GC/heap resource usage per pipeline phase \
              (allocation words, collections, heap high-water), export \
              it as a $(b,resource) field in the report JSON, and — \
              with $(b,--trace) — emit heap/GC counter tracks into the \
              trace timeline.")

let explain_arg =
  Arg.(
    value & flag
    & info [ "explain" ]
        ~doc:"Record heuristic decisiveness while scheduling: per rank, \
              how often each heuristic was consulted, how many candidates \
              it eliminated and how often it settled the choice, plus \
              forced decisions, program-order tie-breaks and \
              priority-weight overrules.  Printed per strategy on stderr \
              after the run and exported as an $(b,explain) field in the \
              report JSON.  Schedules are unchanged; without this flag \
              report bytes are untouched.")

let log_path_conv =
  let parse s =
    if s = "" then Error (`Msg "log path must not be empty") else Ok s
  in
  Arg.conv (parse, Format.pp_print_string)

let log_arg =
  Arg.(
    value
    & opt (some log_path_conv) None
    & info [ "log" ] ~docv:"FILE"
        ~doc:"Write structured JSONL events (one object per line) to \
              $(docv), truncating it first: heartbeats and diagnostics.  \
              The file is written through on every event (O_APPEND, no \
              buffering), so it survives crashes and kills.")

let log_level_conv =
  let parse s =
    match Log.level_of_string s with
    | Some l -> Ok l
    | None ->
        Error
          (`Msg
            (Printf.sprintf
               "unknown log level %S (available: debug, info, warn, error)" s))
  in
  Arg.conv (parse, fun fmt l -> Format.pp_print_string fmt (Log.level_to_string l))

let log_level_arg =
  Arg.(
    value
    & opt (some log_level_conv) None
    & info [ "log-level" ] ~docv:"LEVEL"
        ~doc:"Minimum event level to record: debug, info, warn or error \
              (default info when $(b,--log) is given).")

let progress_arg =
  Arg.(
    value & flag
    & info [ "progress" ]
        ~doc:"Render live progress on stderr: blocks done/total, current \
              phase, resident-set size.")

(* the obs flags, declared once; serve has no --explain *)
type obs = {
  trace : string option;
  metrics : bool;
  resource : bool;
  explain : bool;
  log : string option;
  log_level : Log.level option;
  progress : bool;
}

let obs_term ~explain =
  let make trace metrics resource explain log log_level progress =
    { trace; metrics; resource; explain; log; log_level; progress }
  in
  Term.(
    const make $ trace_arg $ metrics_arg $ resource_arg
    $ (if explain then explain_arg else const false)
    $ log_arg $ log_level_arg $ progress_arg)

(* --trace also turns the metrics registry on (a traced serve daemon's
   metrics op reports it); only --metrics prints the registry on
   stderr.  --progress echoes this process's heartbeats on stderr. *)
let obs_enable o =
  if o.trace <> None then Trace.enable ();
  if o.metrics || o.trace <> None then Metrics.enable ();
  if o.resource then Obs_resource.enable ();
  if o.explain then Explain.enable ();
  if o.progress then Log.set_heartbeat ~echo:true ~interval_s:0.5 ();
  (match (o.log_level, o.log) with
  | None, None -> ()
  | lvl, _ -> Log.set_level (Some (Option.value lvl ~default:Log.Info)));
  match o.log with
  | None -> ()
  | Some path -> (
      match Log.set_sink path with
      | Ok () -> ()
      | Error msg ->
          Printf.eprintf "log error: %s\n" msg;
          exit 125)

let span_parse file f =
  Trace.with_span ~cat:"cli" ~args:[ ("file", Json.String file) ] "parse" f

let span_encode f = Trace.with_span ~cat:"cli" "json_encode" f

(* Attach the resource-profiling snapshot to a report object when
   profiling is on, with the same round-trip self-check discipline as
   every other writer; the identity otherwise, so report bytes are
   untouched when --resource is absent. *)
let with_resource json =
  if not (Obs_resource.is_enabled ()) then json
  else
    match json with
    | Json.Obj fields ->
        let rows = Obs_resource.snapshot () in
        let rj = Obs_resource.to_json rows in
        (match Obs_resource.of_json rj with
        | Ok rows' when Obs_resource.equal rows rows' -> ()
        | _ ->
            Printf.eprintf "internal error: resource JSON round trip mismatch\n";
            exit 3);
        Json.Obj (fields @ [ ("resource", rj) ])
    | other -> other

(* Same discipline for the decisiveness statistics: an "explain" field
   appended only when the registry is live, round-trip checked. *)
let with_explain json =
  if not (Explain.enabled ()) then json
  else
    match json with
    | Json.Obj fields ->
        let stats = Explain.snapshot () in
        let ej = Explain.to_json stats in
        (match Explain.of_json ej with
        | Ok stats' when Explain.equal stats stats' -> ()
        | _ ->
            Printf.eprintf "internal error: explain JSON round trip mismatch\n";
            exit 3);
        Json.Obj (fields @ [ ("explain", ej) ])
    | other -> other

let explain_tables () =
  List.iter
    (fun (st : Explain.strategy_stat) ->
      Printf.eprintf
        "decisiveness: %s\n  %d decisions: %d forced, %d program-order \
         tie-breaks, %d weight-overruled\n"
        st.Explain.signature st.Explain.decisions st.Explain.forced
        st.Explain.tie_breaks st.Explain.overruled;
      let t =
        Table.create ~title:"ranks"
          [ "rank"; "heuristic"; "consulted"; "decided"; "eliminated" ]
      in
      List.iter
        (fun (r : Explain.rank_stat) ->
          Table.add_row t
            [ string_of_int r.Explain.rank; r.Explain.heuristic;
              string_of_int r.Explain.consulted;
              string_of_int r.Explain.decided;
              string_of_int r.Explain.eliminated ])
        st.Explain.ranks;
      prerr_string (Table.render t);
      match Explain.never_consulted st with
      | [] -> ()
      | dead ->
          Printf.eprintf "  never consulted: %s\n" (String.concat ", " dead))
    (Explain.snapshot ())

(* After the run: write the Chrome trace (with the same round-trip
   self-check discipline as the report writers) and print the per-phase,
   metrics, resource and decisiveness summaries on stderr. *)
let obs_finish o =
  (match o.trace with
  | None -> ()
  | Some path ->
      let spans = Trace.snapshot () in
      let counters = Trace.snapshot_counters () in
      let json =
        Trace.to_json ~pid_names:[ (0, "schedtool") ] ~counters spans
      in
      let text = Stats.Json.to_string json ^ "\n" in
      (match Stats.Json.of_string text with
      | Ok j
        when (match (Trace.events_of_json j, Trace.counters_of_json j) with
             | Ok spans', Ok counters' ->
                 spans' = spans && counters' = counters
             | _ -> false) -> ()
      | Ok _ ->
          Printf.eprintf "internal error: trace JSON round trip mismatch\n";
          exit 3
      | Error msg ->
          Printf.eprintf "internal error: trace JSON does not parse: %s\n" msg;
          exit 3);
      (try Out_channel.with_open_text path (fun oc -> output_string oc text)
       with Sys_error msg ->
         Printf.eprintf "trace error: %s\n" msg;
         exit 125);
      let t =
        Table.create ~title:"phases"
          [ "phase"; "spans"; "total ms"; "max ms" ]
      in
      List.iter
        (fun (p : Trace.phase_stat) ->
          Table.add_row t
            [ p.Trace.phase; string_of_int p.Trace.spans;
              Printf.sprintf "%.3f" (p.Trace.total_us /. 1000.0);
              Printf.sprintf "%.3f" (p.Trace.max_us /. 1000.0) ])
        (Trace.summary spans);
      prerr_string (Table.render t));
  if o.metrics then begin
    let snap = Metrics.snapshot () in
    if snap.Metrics.counters <> [] then begin
      let ct = Table.create ~title:"counters" [ "counter"; "value" ] in
      List.iter
        (fun (name, v) -> Table.add_row ct [ name; string_of_int v ])
        snap.Metrics.counters;
      prerr_string (Table.render ct)
    end;
    if snap.Metrics.histograms <> [] then begin
      let ht =
        Table.create ~title:"histograms"
          [ "histogram"; "count"; "sum"; "mean"; "p50"; "p95"; "p99" ]
      in
      List.iter
        (fun (h : Metrics.hist_summary) ->
          Table.add_row ht
            [ h.Metrics.name; string_of_int h.Metrics.count;
              string_of_int h.Metrics.sum;
              Printf.sprintf "%.1f" h.Metrics.mean;
              string_of_int h.Metrics.p50; string_of_int h.Metrics.p95;
              string_of_int h.Metrics.p99 ])
        (Metrics.summary snap);
      prerr_string (Table.render ht)
    end
  end;
  if o.resource then begin
    let rows = Obs_resource.snapshot () in
    if rows <> [] then begin
      let rt =
        Table.create ~title:"resource"
          [ "phase"; "calls"; "minor Mw"; "promoted Mw"; "major Mw";
            "minor gc"; "major gc"; "top heap Mw" ]
      in
      List.iter
        (fun (r : Obs_resource.phase_stat) ->
          Table.add_row rt
            [ r.Obs_resource.phase;
              string_of_int r.Obs_resource.calls;
              Printf.sprintf "%.2f" (r.Obs_resource.minor_words /. 1e6);
              Printf.sprintf "%.2f" (r.Obs_resource.promoted_words /. 1e6);
              Printf.sprintf "%.2f" (r.Obs_resource.major_words /. 1e6);
              string_of_int r.Obs_resource.minor_collections;
              string_of_int r.Obs_resource.major_collections;
              Printf.sprintf "%.2f"
                (float_of_int r.Obs_resource.top_heap_words /. 1e6) ])
        rows;
      prerr_string (Table.render rt)
    end
  end;
  if o.explain then explain_tables ()

(* ------------------------------------------------------------------ *)
(* gen *)

let gen_cmd =
  let run profile =
    let blocks = Profiles.generate profile in
    List.iter
      (fun b ->
        Printf.printf "B%d:\n%s" b.Block.id
          (Parser.print_program (Block.to_list b)))
      blocks
  in
  let profile =
    Arg.(
      value
      & opt profile_conv Profiles.linpack
      & info [ "p"; "profile" ] ~docv:"PROFILE"
          ~doc:"Workload profile (a Table-3 benchmark name).")
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a calibrated workload as assembly text.")
    Term.(const run $ profile)

(* ------------------------------------------------------------------ *)
(* stats *)

let stats_cmd =
  let run file =
    let blocks = load_blocks file in
    let s = Summary.of_blocks blocks in
    Format.printf "%a@." Summary.pp s
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Table-3 style structural statistics for a program.")
    Term.(const run $ file_arg)

(* ------------------------------------------------------------------ *)
(* build *)

let build_cmd =
  let run alg model strategy verbose file =
    let blocks = load_blocks file in
    let opts = opts_of model strategy in
    let dags = List.map (Builder.build alg opts) blocks in
    let s = Dag_stats.of_dags dags in
    Format.printf "%s: %a@." (Builder.to_string alg) Dag_stats.pp s;
    if verbose then
      List.iter (fun dag -> Format.printf "%a" Dag.pp dag) dags
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print every arc.")
  in
  Cmd.v
    (Cmd.info "build" ~doc:"Construct dependence DAGs and report structure.")
    Term.(const run $ builder_arg $ model_arg $ strategy_arg $ verbose $ file_arg)

(* ------------------------------------------------------------------ *)
(* schedule *)

let schedule_cmd =
  let run spec model strategy quiet emit file =
    let blocks = load_blocks file in
    let opts = opts_of model strategy in
    let before = ref 0 and after = ref 0 in
    let schedules =
      List.map
        (fun block ->
          let s = Published.run ~opts spec block in
          assert (Verify.is_valid s);
          let score = Schedule.score s in
          before := !before + score.Schedule.original_cycles;
          after := !after + score.Schedule.scheduled.Pipeline.completion;
          s)
        blocks
    in
    if emit then begin
      let insns, filled, padded = Emit.emit_program schedules in
      if not quiet then print_string (Parser.print_program insns);
      Printf.eprintf "delay slots: %d filled, %d padded with nop\n" filled
        padded
    end
    else if not quiet then
      List.iter (fun s -> print_endline (Schedule.to_string s)) schedules;
    Printf.eprintf "%s: %d cycles -> %d cycles (%d blocks)\n"
      spec.Published.name !before !after (List.length blocks)
  in
  let spec =
    Arg.(
      value
      & opt scheduler_conv Published.warren
      & info [ "A"; "scheduler" ] ~docv:"SCHED"
          ~doc:"Published scheduling algorithm (Table 2 name).")
  in
  let quiet =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Suppress scheduled code.")
  in
  let emit =
    Arg.(
      value & flag
      & info [ "e"; "emit" ]
          ~doc:"Emit for a delayed-branch machine: fill or NOP-pad delay slots.")
  in
  Cmd.v
    (Cmd.info "schedule"
       ~doc:"Schedule a program with one of the six published algorithms.")
    Term.(const run $ spec $ model_arg $ strategy_arg $ quiet $ emit $ file_arg)

(* ------------------------------------------------------------------ *)
(* compare *)

let compare_cmd =
  let run model strategy file =
    let blocks = load_blocks file in
    let opts = opts_of model strategy in
    let t =
      Table.create ~title:"schedulers"
        [ "algorithm"; "cycles"; "stalls"; "vs original" ]
    in
    let original =
      List.fold_left
        (fun acc b -> acc + Pipeline.cycles model b.Block.insns)
        0 blocks
    in
    Table.add_row t [ "(original order)"; string_of_int original; "-"; "1.00" ];
    List.iter
      (fun spec ->
        let cycles, stalls =
          List.fold_left
            (fun (c, st) b ->
              let sim = Schedule.simulate (Published.run ~opts spec b) in
              (c + sim.Pipeline.completion, st + sim.Pipeline.stall_cycles))
            (0, 0) blocks
        in
        Table.add_row t
          [ spec.Published.name; string_of_int cycles; string_of_int stalls;
            Printf.sprintf "%.2f" (float_of_int cycles /. float_of_int original) ])
      Published.all;
    Table.print t;
    let bt =
      Table.create ~title:"builders" [ "builder"; "arcs"; "transitive arcs" ]
    in
    List.iter
      (fun alg ->
        let dags = List.map (Builder.build alg opts) blocks in
        let arcs = List.fold_left (fun a d -> a + Dag.n_arcs d) 0 dags in
        let trans =
          List.fold_left (fun a d -> a + Closure.count_transitive_arcs d) 0 dags
        in
        Table.add_row bt
          [ Builder.to_string alg; string_of_int arcs; string_of_int trans ])
      Builder.all;
    Table.print bt
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Compare all builders and published schedulers on one program.")
    Term.(const run $ model_arg $ strategy_arg $ file_arg)

(* ------------------------------------------------------------------ *)
(* optimal *)

let optimal_cmd =
  let run model strategy budget file =
    let blocks = load_blocks file in
    let opts = opts_of model strategy in
    let t =
      Table.create ~title:""
        [ "block"; "insns"; "optimal"; "exhaustive"; "nodes explored";
          "best heuristic" ]
    in
    List.iter
      (fun block ->
        let dag = Builder.build Builder.Table_forward opts block in
        let r = Optimal.run ~budget dag in
        let best_heuristic =
          List.fold_left
            (fun acc spec ->
              let s = Published.run_on_dag spec dag in
              min acc (Optimal.evaluate dag s.Schedule.order))
            max_int Published.all
        in
        Table.add_row t
          [ string_of_int block.Block.id;
            string_of_int (Block.length block);
            string_of_int r.Optimal.cycles;
            string_of_bool r.Optimal.optimal;
            string_of_int r.Optimal.nodes_explored;
            string_of_int best_heuristic ])
      blocks;
    Table.print t
  in
  let budget =
    Arg.(
      value & opt int 300_000
      & info [ "b"; "budget" ] ~docv:"N" ~doc:"Search-node budget.")
  in
  Cmd.v
    (Cmd.info "optimal"
       ~doc:"Branch-and-bound optimal scheduling (small blocks).")
    Term.(const run $ model_arg $ strategy_arg $ budget $ file_arg)

(* ------------------------------------------------------------------ *)
(* chain: cross-block scheduling with inherited latencies *)

let chain_cmd =
  let run model strategy inherit_latencies file =
    let blocks = load_blocks file in
    let opts = opts_of model strategy in
    let config =
      {
        Engine.direction = Dyn_state.Forward;
        mode = Engine.Winnowing;
        keys =
          [ Engine.key Heuristic.Earliest_execution_time;
            Engine.key Heuristic.Max_delay_to_leaf ];
      }
    in
    let _, insns =
      Global.schedule_chain ~inherit_latencies ~config ~opts blocks
    in
    print_string (Parser.print_program (Array.to_list insns));
    Printf.eprintf "chain: %d blocks, %d cycles (%s latencies)\n"
      (List.length blocks)
      (Global.chain_cycles model insns)
      (if inherit_latencies then "inherited" else "local")
  in
  let inherit_flag =
    Arg.(
      value & flag
      & info [ "g"; "global" ]
          ~doc:"Seed each block with the previous block's residual latencies.")
  in
  Cmd.v
    (Cmd.info "chain" ~doc:"Schedule a block sequence, optionally with inherited latencies.")
    Term.(const run $ model_arg $ strategy_arg $ inherit_flag $ file_arg)

(* ------------------------------------------------------------------ *)
(* batch: the parallel batch-scheduling driver *)

(* Encode the report (plus the resource/explain sections when those are
   on), check that it reads back to an equal report — exit 3 otherwise;
   [Batch.report_equal] is NaN-tolerant, since under structural [=] a
   valid report with a NaN field would fail its own check — and write
   it to [path] ('-' for stdout). *)
let write_report report path =
  let text =
    span_encode (fun () ->
        Stats.Json.to_string
          (with_explain (with_resource (Batch.report_to_json report)))
        ^ "\n")
  in
  (match Stats.Json.of_string text with
  | Ok json
    when (match Batch.report_of_json json with
         | Ok report' -> Batch.report_equal report report'
         | Error _ -> false) -> ()
  | Ok _ ->
      Printf.eprintf "internal error: report JSON round trip mismatch\n";
      exit 3
  | Error msg ->
      Printf.eprintf "internal error: report JSON does not parse: %s\n" msg;
      exit 3);
  if path = "-" then print_string text
  else Out_channel.with_open_text path (fun oc -> output_string oc text)

let batch_cmd =
  let run alg model strategy jobs json_path quiet obs files =
    obs_enable obs;
    let blocks =
      List.concat_map
        (fun file -> span_parse file (fun () -> load_blocks file))
        files
    in
    let config =
      { Batch.section6 with
        Batch.algorithm = alg;
        opts = opts_of model strategy }
    in
    let domains = if jobs <= 0 then Pool.recommended () else jobs in
    let results, report = Batch.run_with_report ~domains config blocks in
    (* --json - claims stdout for the report alone, so it stays one
       JSON document *)
    if not (quiet || json_path = Some "-") then
      List.iter
        (fun (r : Batch.result) ->
          Printf.printf "B%d: %d insns, %d arcs, %d -> %d cycles\n"
            r.Batch.block_id r.Batch.insns r.Batch.dag_arcs
            r.Batch.original_cycles r.Batch.cycles)
        results;
    Option.iter (write_report report) json_path;
    Log.heartbeat ~force:true ~phase:"done" ~done_:report.Batch.blocks
      ~total:report.Batch.blocks ();
    Printf.eprintf
      "batch: %d blocks, %d domains, %d -> %d cycles, %.1f ms wall\n"
      report.Batch.blocks report.Batch.domains report.Batch.original_cycles
      report.Batch.scheduled_cycles (1000.0 *. report.Batch.wall_s);
    obs_finish obs
  in
  let jobs =
    Arg.(
      value & opt int 0
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Worker domains (0 or absent: one per recommended core).")
  in
  let json_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the aggregate report as JSON ('-' for stdout, \
                replacing the per-block lines).")
  in
  let quiet =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Suppress per-block lines.")
  in
  let files =
    Arg.(
      value & pos_all string [ "-" ]
      & info [] ~docv:"FILE"
          ~doc:"Assembly inputs, scheduled in order as one corpus ('-' for \
                stdin; default stdin).")
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Run the full pipeline over every block of every input in \
          parallel across a work-stealing domain pool (deterministic: \
          output is independent of $(b,--jobs)).")
    Term.(
      const run $ builder_arg $ model_arg $ strategy_arg $ jobs $ json_path
      $ quiet $ obs_term ~explain:true $ files)

(* ------------------------------------------------------------------ *)
(* serve: the scheduling daemon, and its client *)

let socket_conv =
  let parse s =
    if s = "" then Error (`Msg "socket path must not be empty") else Ok s
  in
  Arg.conv (parse, Format.pp_print_string)

let socket_arg =
  Arg.(
    required
    & opt (some socket_conv) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let serve_cmd =
  let run socket jobs cache_entries cache_bytes max_frame timeout backlog
      access_log no_service_obs obs =
    obs_enable obs;
    let d = Serve.default_options in
    let options =
      { Serve.domains = (if jobs <= 0 then 1 else jobs);
        max_entries = (if cache_entries <= 0 then d.Serve.max_entries else cache_entries);
        max_bytes = (if cache_bytes <= 0 then d.Serve.max_bytes else cache_bytes);
        max_frame = (if max_frame <= 0 then d.Serve.max_frame else max_frame);
        read_timeout_s = (if timeout <= 0.0 then d.Serve.read_timeout_s else timeout);
        backlog = (if backlog <= 0 then d.Serve.backlog else backlog);
        service_obs = not no_service_obs;
        access_log }
    in
    let code = Serve.run ~options ~socket () in
    obs_finish obs;
    exit code
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Worker domains in the resident pool (default 1; part of \
                the report, so also part of the response bytes).")
  in
  let cache_entries =
    Arg.(
      value & opt int 0
      & info [ "cache-entries" ] ~docv:"N"
          ~doc:"Result-cache entry bound (0 or absent: 4096).")
  in
  let cache_bytes =
    Arg.(
      value & opt int 0
      & info [ "cache-bytes" ] ~docv:"B"
          ~doc:"Result-cache byte bound (0 or absent: 256 MiB).")
  in
  let max_frame =
    Arg.(
      value & opt int 0
      & info [ "max-frame" ] ~docv:"B"
          ~doc:"Largest accepted request frame in bytes (0 or absent: 16 \
                MiB); an oversized frame is answered with a typed error.")
  in
  let timeout =
    Arg.(
      value & opt float 0.0
      & info [ "timeout" ] ~docv:"S"
          ~doc:"Per-connection receive timeout in seconds (0 or absent: 10).")
  in
  let backlog =
    Arg.(
      value & opt int 0
      & info [ "backlog" ] ~docv:"N"
          ~doc:"listen(2) backlog — how many clients may queue (0 or \
                absent: 128).")
  in
  let access_log =
    (* socket_conv is just the nonempty-path check; an empty path is a
       flag error (124), an unopenable one is I/O (125, from run) *)
    Arg.(
      value
      & opt (some socket_conv) None
      & info [ "access-log" ] ~docv:"FILE"
          ~doc:"Write one JSONL access-log line per request (id, op, \
                cache hit/miss, bytes in/out, duration, outcome); the \
                file is truncated at daemon start.")
  in
  let no_service_obs =
    Arg.(
      value & flag
      & info [ "no-service-obs" ]
          ~doc:"Disable windowed request metrics (the $(b,metrics) op \
                then answers empty windows).  Response bytes are \
                identical either way.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the scheduling daemon: accept length-prefixed JSON schedule \
          requests on a Unix socket, answer from a content-addressed LRU \
          result cache or by running the batch pipeline on a resident \
          domain pool.  One request per connection, serviced sequentially; \
          a warm response is byte-identical to the cold response that \
          populated it.  SIGINT drains (in-flight request finishes) and \
          exits 130.")
    Term.(
      const run $ socket_arg $ jobs $ cache_entries $ cache_bytes
      $ max_frame $ timeout $ backlog $ access_log $ no_service_obs
      $ obs_term ~explain:false)

(* one metrics-op exchange, decoded: shared by `client --metrics-text`
   and `top`.  Exit taxonomy: 125 unreachable, 1 typed error answer,
   2 undecodable response. *)
let fetch_metrics ~who ~socket =
  let payload = Json.to_string (Serve.request_to_json Serve.Metrics) in
  match Serve.request_once ~socket payload with
  | Error msg ->
      Printf.eprintf "%s error: %s\n" who msg;
      exit 125
  | Ok response -> (
      match Json.of_string response with
      | Ok json when Json.member "status" json = Some (Json.String "error") ->
          print_endline response;
          exit 1
      | Ok json -> (
          match Serve.metrics_of_json json with
          | Ok m -> m
          | Error e ->
              Printf.eprintf "%s error: bad metrics response: %s\n" who
                (Json.error_to_string e);
              exit 2)
      | Error msg ->
          Printf.eprintf "%s error: unparseable response: %s\n" who msg;
          exit 2)

let client_cmd =
  let run socket ping stats metrics metrics_text alg model strategy file =
    if metrics_text then
      print_string
        (Serve.prometheus_of_metrics (fetch_metrics ~who:"client" ~socket))
    else
      let request =
        if ping then Serve.Ping
        else if stats then Serve.Stats
        else if metrics then Serve.Metrics
        else
          Serve.Schedule
            { text = read_input file; builder = alg; strategy; model }
      in
      let payload = Json.to_string (Serve.request_to_json request) in
      match Serve.request_once ~socket payload with
      | Error msg ->
          Printf.eprintf "client error: %s\n" msg;
          exit 125
      | Ok response -> (
          print_endline response;
          (* a typed error answer is a request failure: exit 1 so scripts
             can tell "scheduled" from "daemon said no" *)
          match Json.of_string response with
          | Ok json
            when Json.member "status" json = Some (Json.String "error") ->
              exit 1
          | _ -> ())
  in
  let ping =
    Arg.(
      value & flag
      & info [ "ping" ] ~doc:"Send a liveness ping instead of a schedule \
                              request.")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:"Ask the daemon for its request and cache counters \
                (hits, misses, evictions, bytes) instead of scheduling.")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Ask the daemon for its full telemetry snapshot (uptime, \
                rss, cache gauges, registry, windowed latency stats) as \
                raw JSON.")
  in
  let metrics_text =
    Arg.(
      value & flag
      & info [ "metrics-text" ]
          ~doc:"Like $(b,--metrics), but render Prometheus/OpenMetrics \
                text exposition instead of JSON.")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send one request to a running $(b,schedtool serve) daemon and \
          print the JSON response: a schedule request built from an \
          assembly file (default), $(b,--ping), $(b,--stats), \
          $(b,--metrics), or $(b,--metrics-text) (Prometheus text).  \
          Exits 125 when the daemon is unreachable, 1 when it answers a \
          typed error.")
    Term.(
      const run $ socket_arg $ ping $ stats $ metrics $ metrics_text
      $ builder_arg $ model_arg $ strategy_arg $ file_arg)

(* ------------------------------------------------------------------ *)
(* top: live terminal dashboard over the metrics op *)

(* top's --interval and --count *)
let timeout_conv =
  let parse s =
    match float_of_string_opt s with
    | Some t when Float.is_finite t && t > 0.0 -> Ok t
    | _ -> Error (`Msg (Printf.sprintf "timeout must be a positive number of seconds, got %S" s))
  in
  Arg.conv (parse, fun fmt t -> Format.fprintf fmt "%g" t)

let retries_conv =
  let parse s =
    match int_of_string_opt s with
    | Some r when r >= 0 -> Ok r
    | _ -> Error (`Msg (Printf.sprintf "retries must be a non-negative integer, got %S" s))
  in
  Arg.conv (parse, fun fmt r -> Format.pp_print_int fmt r)

let top_cmd =
  let render m =
    let lookups = m.Serve.cache_hits + m.Serve.cache_misses in
    let hit_rate =
      if lookups = 0 then 0.0
      else 100.0 *. float_of_int m.Serve.cache_hits /. float_of_int lookups
    in
    Printf.printf "uptime %.1f s   rss %.1f MB   requests %d\n"
      m.Serve.uptime_s
      (float_of_int m.Serve.rss_kb /. 1024.0)
      m.Serve.requests;
    Printf.printf
      "cache: %d/%d entries   %.2f/%.2f MB   hit rate %.1f%%   evictions \
       %d   rejects %d\n"
      m.Serve.cache_entries m.Serve.cache_max_entries
      (float_of_int m.Serve.cache_bytes /. (1024.0 *. 1024.0))
      (float_of_int m.Serve.cache_max_bytes /. (1024.0 *. 1024.0))
      hit_rate m.Serve.cache_evictions m.Serve.cache_rejects;
    let t =
      Table.create ~title:"windows"
        [ "window"; "count"; "req/s"; "errors"; "mean us"; "p50 us";
          "p95 us"; "p99 us" ]
    in
    List.iter
      (fun (w : Window.stats) ->
        Table.add_row t
          [ Printf.sprintf "%gs" w.Window.window_s;
            string_of_int w.Window.count;
            Table.fmt_float w.Window.rate;
            string_of_int w.Window.errors;
            Table.fmt_float w.Window.mean_us;
            string_of_int w.Window.p50_us;
            string_of_int w.Window.p95_us;
            string_of_int w.Window.p99_us ])
      m.Serve.windows;
    Table.print t
  in
  let run socket interval count =
    let tty = try Unix.isatty Unix.stdout with Unix.Unix_error _ -> false in
    if (not tty) || count = 1 then
      (* non-TTY (scripts, CI): one table, no redraw loop *)
      render (fetch_metrics ~who:"top" ~socket)
    else begin
      let polls = ref 0 in
      let remaining () = count <= 0 || !polls < count in
      while remaining () do
        let m = fetch_metrics ~who:"top" ~socket in
        (* clear screen, cursor home — a minimal live dashboard *)
        print_string "\027[2J\027[H";
        render m;
        flush stdout;
        incr polls;
        if remaining () then Unix.sleepf interval
      done
    end
  in
  let interval =
    Arg.(
      value
      & opt timeout_conv 2.0
      & info [ "n"; "interval" ] ~docv:"S"
          ~doc:"Seconds between polls (positive; default 2).")
  in
  let count =
    Arg.(
      value
      & opt retries_conv 0
      & info [ "c"; "count" ] ~docv:"N"
          ~doc:"Stop after N polls (0 or absent: until interrupted; \
                always a single poll when stdout is not a TTY).")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live dashboard over a running $(b,schedtool serve) daemon: \
          polls the $(b,metrics) op every $(b,--interval) seconds and \
          renders requests/s, windowed latency quantiles (1s/10s/60s), \
          error counts and cache occupancy.  When stdout is not a TTY \
          it prints one snapshot table and exits.  Exits 125 when the \
          daemon is unreachable, 1 when it answers a typed error.")
    Term.(const run $ socket_arg $ interval $ count)

(* ------------------------------------------------------------------ *)
(* dot *)

let dot_cmd =
  let run alg model strategy block_id file =
    let blocks = load_blocks file in
    match List.find_opt (fun b -> b.Block.id = block_id) blocks with
    | None ->
        Printf.eprintf "no block %d (have %d blocks)\n" block_id
          (List.length blocks);
        exit 2
    | Some block ->
        let dag = Builder.build alg (opts_of model strategy) block in
        print_string (Dot.render dag)
  in
  let block_id =
    Arg.(
      value & opt int 0
      & info [ "n"; "block" ] ~docv:"N" ~doc:"Block index to export.")
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Export one block's dependence DAG as Graphviz DOT.")
    Term.(const run $ builder_arg $ model_arg $ strategy_arg $ block_id $ file_arg)

(* ------------------------------------------------------------------ *)
(* gantt *)

let gantt_cmd =
  let run spec model strategy file =
    let blocks = load_blocks file in
    let opts = opts_of model strategy in
    List.iter
      (fun block ->
        Printf.printf "; block %d, %s\n" block.Block.id spec.Published.name;
        let s = Published.run ~opts spec block in
        Gantt.print s)
      blocks
  in
  let spec =
    Arg.(
      value
      & opt scheduler_conv Published.warren
      & info [ "A"; "scheduler" ] ~docv:"SCHED" ~doc:"Published algorithm.")
  in
  Cmd.v
    (Cmd.info "gantt"
       ~doc:"Schedule and render per-cycle issue timelines with stalls.")
    Term.(const run $ spec $ model_arg $ strategy_arg $ file_arg)

(* ------------------------------------------------------------------ *)
(* explain: decision provenance — per-block narrative, corpus
   decisiveness for every published strategy, JSONL/DOT/timeline
   exports and the optimality-gap report *)

let export_path_conv =
  let parse s =
    if s = "" then Error (`Msg "export path must not be empty") else Ok s
  in
  Arg.conv (parse, Format.pp_print_string)

(* Oracle feasibility pre-filter: beyond this size the branch-and-bound
   burns its whole budget without finishing, so --gap skips the search
   outright and reports the block as skipped. *)
let gap_max_insns = 32

(* One-line instruction text: a label prefix ("B0:\n\t...") would break
   the narrative's and the timeline's one-event-per-line shape. *)
let insn_line dag i =
  let s = String.trim (Insn.to_string (Dag.insn dag i)) in
  match String.rindex_opt s '\n' with
  | None -> s
  | Some k -> String.trim (String.sub s (k + 1) (String.length s - k - 1))

let explain_cmd =
  let run spec model strategy block_idx quiet jsonl_path dot_path
      timeline_path gap budget json_path file =
    let blocks = load_blocks file in
    if blocks = [] then begin
      Printf.eprintf "explain error: no blocks in input\n";
      exit 2
    end;
    let block =
      match List.find_opt (fun b -> b.Block.id = block_idx) blocks with
      | Some b -> b
      | None ->
          Printf.eprintf "explain error: no block %d (have %d blocks)\n"
            block_idx (List.length blocks);
          exit 124
    in
    let opts = opts_of model strategy in
    let config = Published.engine_config spec in
    let write_export what path text =
      if path = "-" then print_string text
      else
        try Out_channel.with_open_text path (fun oc -> output_string oc text)
        with Sys_error msg ->
          Printf.eprintf "%s error: %s\n" what msg;
          exit 125
    in
    (* -- narrative: one block, the chosen scheduler, every decision -- *)
    (* the full static pass (not compute_for) so the DOT export below
       can highlight the slack-0 critical path *)
    let dag = Builder.build (Published.builder spec) opts block in
    let annot = Static_pass.compute dag in
    let order, decisions = Engine.run_traced config ~annot dag in
    let schedule =
      let s = Schedule.make dag order in
      if spec.Published.postpass_fixup then Fixup.run s else s
    in
    if not quiet then begin
      Printf.printf "block %d: %s, %d instructions, %d decisions\n\n"
        block.Block.id spec.Published.name (Block.length block)
        (List.length decisions);
      let insn i = insn_line dag i in
      List.iter
        (fun (d : Engine.decision) ->
          Printf.printf "t=%-3d candidates: {%s}\n" d.Engine.time
            (String.concat ", " (List.map string_of_int d.Engine.candidates));
          List.iter
            (fun (h, best, survivors) ->
              Printf.printf "      %-36s best %4d -> {%s}\n"
                (Heuristic.to_string h) best
                (String.concat ", " (List.map string_of_int survivors)))
            d.Engine.trail;
          if d.Engine.tie_break then
            Printf.printf "      program-order tie-break\n";
          Printf.printf "      issued %d%s: %s\n" d.Engine.chosen
            (if d.Engine.trail = [] then " (forced)" else "")
            (insn d.Engine.chosen))
        decisions;
      Printf.printf "\nissue timeline:\n%s" (Gantt.render schedule)
    end;
    (* -- DOT export: the narrative block's DAG, critical path marked - *)
    (match dot_path with
    | None -> ()
    | Some path ->
        let critical =
          List.filter
            (fun i -> annot.Annot.slack.(i) = 0)
            (List.init (Dag.length dag) Fun.id)
        in
        write_export "dot" path
          (Dot.render
             ~name:(Printf.sprintf "block%d" block.Block.id)
             ~highlight:critical dag));
    (* -- JSONL decision trace: the chosen scheduler, whole corpus ---- *)
    (match jsonl_path with
    | None -> ()
    | Some path ->
        let sg = Engine.signature config in
        let ds =
          List.concat_map
            (fun b ->
              let dag = Builder.build (Published.builder spec) opts b in
              let annot =
                Static_pass.compute_for (Published.heuristics_of spec) dag
              in
              let _, decisions = Engine.run_traced config ~annot dag in
              List.map
                (fun (d : Engine.decision) ->
                  { Explain.block = b.Block.id;
                    strategy = sg;
                    time = d.Engine.time;
                    candidates = d.Engine.candidates;
                    steps =
                      List.map
                        (fun (h, best, survivors) ->
                          { Explain.heuristic = Heuristic.to_string h;
                            best; survivors })
                        d.Engine.trail;
                    chosen = d.Engine.chosen;
                    tie_break = d.Engine.tie_break })
                decisions)
            blocks
        in
        let text = Explain.decisions_to_jsonl ds in
        (match Explain.decisions_of_jsonl text with
        | Ok ds' when ds' = ds -> ()
        | _ ->
            Printf.eprintf
              "internal error: decision JSONL round trip mismatch\n";
            exit 3);
        write_export "jsonl" path text);
    (* -- timeline export: issue cycles as Chrome trace events -------- *)
    (match timeline_path with
    | None -> ()
    | Some path ->
        let spans =
          List.concat_map
            (fun b ->
              let s = Published.run ~opts spec b in
              let sim = Schedule.simulate s in
              let dag = s.Schedule.dag in
              let model = Dag.model dag in
              Array.to_list
                (Array.mapi
                   (fun k node ->
                     { Trace.name = insn_line dag node;
                       cat = "issue";
                       ts_us = float_of_int sim.Pipeline.issue_cycle.(k);
                       dur_us =
                         float_of_int
                           (max 1 (model.Latency.exec_time (Dag.insn dag node)));
                       pid = b.Block.id;
                       tid = 0;
                       args = [ ("node", Json.Int node) ] })
                   s.Schedule.order))
            blocks
        in
        let pid_names =
          List.map
            (fun b ->
              (b.Block.id, Printf.sprintf "block %d" b.Block.id))
            blocks
        in
        let json = Trace.to_json ~pid_names spans in
        let text = Stats.Json.to_string json ^ "\n" in
        (match Stats.Json.of_string text with
        | Ok j
          when (match Trace.events_of_json j with
               | Ok spans' -> spans' = spans
               | Error _ -> false) -> ()
        | _ ->
            Printf.eprintf
              "internal error: timeline JSON round trip mismatch\n";
            exit 3);
        write_export "timeline" path text);
    (* -- decisiveness: every published strategy over the corpus ------ *)
    Explain.enable ();
    Explain.reset ();
    List.iter
      (fun sp ->
        List.iter (fun b -> ignore (Published.run ~opts sp b)) blocks)
      Published.all;
    let stats = Explain.snapshot () in
    Explain.disable ();
    Explain.reset ();
    if not quiet then
      List.iter
        (fun sp ->
          let sg = Engine.signature (Published.engine_config sp) in
          match
            List.find_opt (fun st -> st.Explain.signature = sg) stats
          with
          | None -> ()
          | Some st ->
              Printf.printf
                "\ndecisiveness: %s (%s)\n  %d decisions: %d forced, %d \
                 program-order tie-breaks, %d weight-overruled\n"
                sp.Published.name sg st.Explain.decisions st.Explain.forced
                st.Explain.tie_breaks st.Explain.overruled;
              let t =
                Table.create ~title:""
                  [ "rank"; "heuristic"; "consulted"; "decided";
                    "eliminated" ]
              in
              List.iter
                (fun (r : Explain.rank_stat) ->
                  Table.add_row t
                    [ string_of_int r.Explain.rank; r.Explain.heuristic;
                      string_of_int r.Explain.consulted;
                      string_of_int r.Explain.decided;
                      string_of_int r.Explain.eliminated ])
                st.Explain.ranks;
              print_string (Table.render t);
              (match Explain.never_consulted st with
              | [] -> ()
              | dead ->
                  Printf.printf "  never consulted: %s\n"
                    (String.concat ", " dead)))
        Published.all;
    (* -- optimality gap: oracle vs every strategy, same cost model --- *)
    let gap_json = ref Json.Null in
    if gap then begin
      (* one oracle run per distinct (block, builder) — specs sharing a
         builder share the search *)
      let oracle_cache : (int * Builder.algorithm, Optimal.result option)
          Hashtbl.t =
        Hashtbl.create 64
      in
      let oracle key dag =
        match Hashtbl.find_opt oracle_cache key with
        | Some r -> r
        | None ->
            let r =
              if Dag.length dag > gap_max_insns then None
              else
                let res = Optimal.run ~budget dag in
                if res.Optimal.optimal then Some res else None
            in
            Hashtbl.add oracle_cache key r;
            r
      in
      let strategies =
        List.map
          (fun sp ->
            let per_block =
              List.filter_map
                (fun b ->
                  let alg = Published.builder sp in
                  let dag = Builder.build alg opts b in
                  match oracle (b.Block.id, alg) dag with
                  | None -> None
                  | Some res ->
                      let s = Published.run_on_dag sp dag in
                      let heur = Optimal.evaluate dag s.Schedule.order in
                      Some (b.Block.id, Dag.length dag, heur,
                            res.Optimal.cycles))
                blocks
            in
            (sp, per_block))
          Published.all
      in
      let pct heur opt =
        100.0 *. float_of_int (heur - opt) /. float_of_int (max 1 opt)
      in
      if not quiet then begin
        Printf.printf "\noptimality gap (budget %d, blocks <= %d insns):\n"
          budget gap_max_insns;
        let t =
          Table.create ~title:""
            [ "scheduler"; "feasible"; "skipped"; "cycles"; "optimal";
              "gap %"; "optimal hits" ]
        in
        List.iter
          (fun (sp, per_block) ->
            let feasible = List.length per_block in
            let heur =
              List.fold_left (fun a (_, _, h, _) -> a + h) 0 per_block
            in
            let opt =
              List.fold_left (fun a (_, _, _, o) -> a + o) 0 per_block
            in
            let hits =
              List.length
                (List.filter (fun (_, _, h, o) -> h = o) per_block)
            in
            Table.add_row t
              [ sp.Published.short; string_of_int feasible;
                string_of_int (List.length blocks - feasible);
                string_of_int heur; string_of_int opt;
                Printf.sprintf "%.2f" (pct heur opt);
                string_of_int hits ])
          strategies;
        print_string (Table.render t)
      end;
      gap_json :=
        Json.Obj
          [ ("budget", Json.Int budget);
            ("max_insns", Json.Int gap_max_insns);
            ("blocks", Json.Int (List.length blocks));
            ( "strategies",
              Json.List
                (List.map
                   (fun (sp, per_block) ->
                     let heur =
                       List.fold_left (fun a (_, _, h, _) -> a + h) 0
                         per_block
                     in
                     let opt =
                       List.fold_left (fun a (_, _, _, o) -> a + o) 0
                         per_block
                     in
                     Json.Obj
                       [ ("scheduler", Json.String sp.Published.short);
                         ( "signature",
                           Json.String
                             (Engine.signature (Published.engine_config sp))
                         );
                         ("feasible", Json.Int (List.length per_block));
                         ( "skipped",
                           Json.Int
                             (List.length blocks - List.length per_block) );
                         ("heuristic_cycles", Json.Int heur);
                         ("optimal_cycles", Json.Int opt);
                         ("gap_pct", Json.Float (pct heur opt));
                         ( "per_block",
                           Json.List
                             (List.map
                                (fun (id, insns, h, o) ->
                                  Json.Obj
                                    [ ("block", Json.Int id);
                                      ("insns", Json.Int insns);
                                      ("heuristic", Json.Int h);
                                      ("optimal", Json.Int o) ])
                                per_block) ) ])
                   strategies) ) ]
    end;
    (* -- machine-readable report: decisiveness (+ gap), self-checked - *)
    match json_path with
    | None -> ()
    | Some path ->
        let fields =
          [ ("explain", Explain.to_json stats) ]
          @ if gap then [ ("gap", !gap_json) ] else []
        in
        let text = Stats.Json.to_string (Json.Obj fields) ^ "\n" in
        (match Stats.Json.of_string text with
        | Ok j
          when (match Json.member "explain" j with
               | Some e -> (
                   match Explain.of_json e with
                   | Ok stats' -> Explain.equal stats stats'
                   | Error _ -> false)
               | None -> false) -> ()
        | _ ->
            Printf.eprintf "internal error: explain JSON round trip mismatch\n";
            exit 3);
        write_export "json" path text
  in
  let spec =
    Arg.(
      value
      & opt scheduler_conv Published.warren
      & info [ "A"; "scheduler" ] ~docv:"SCHED"
          ~doc:"Published algorithm for the narrative and exports \
                (decisiveness and $(b,--gap) always cover all six).")
  in
  let block_idx =
    Arg.(
      value & opt int 0
      & info [ "n"; "block" ] ~docv:"N"
          ~doc:"Block to narrate and $(b,--dot)-export.")
  in
  let quiet =
    Arg.(
      value & flag
      & info [ "q"; "quiet" ]
          ~doc:"Suppress the narrative and tables (exports still run).")
  in
  let jsonl_path =
    Arg.(
      value
      & opt (some export_path_conv) None
      & info [ "jsonl" ] ~docv:"FILE"
          ~doc:"Write the decision trace of $(b,-A) over the whole corpus \
                as JSONL, one decision object per line ('-' for stdout; \
                schema in docs/FORMAT.md).")
  in
  let dot_path =
    Arg.(
      value
      & opt (some export_path_conv) None
      & info [ "dot" ] ~docv:"FILE"
          ~doc:"Export block $(b,-n)'s dependence DAG as Graphviz DOT with \
                arc kinds styled and the slack-0 critical path highlighted \
                ('-' for stdout).")
  in
  let timeline_path =
    Arg.(
      value
      & opt (some export_path_conv) None
      & info [ "timeline" ] ~docv:"FILE"
          ~doc:"Export issue cycles as a Chrome trace-event timeline (one \
                process lane per block, loadable in Perfetto; '-' for \
                stdout).")
  in
  let gap =
    Arg.(
      value & flag
      & info [ "gap" ]
          ~doc:"Run the branch-and-bound oracle on every oracle-feasible \
                block and report per-strategy optimality gaps in the same \
                cost model.")
  in
  let budget =
    Arg.(
      value & opt int Optimal.default_budget
      & info [ "budget" ] ~docv:"N"
          ~doc:"Search-node budget per oracle run (with $(b,--gap)).")
  in
  let json_path =
    Arg.(
      value
      & opt (some export_path_conv) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write decisiveness statistics (and the $(b,--gap) report) \
                as JSON ('-' for stdout).")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Explain scheduling decisions: a per-block decision narrative \
          with its issue timeline, corpus-wide heuristic decisiveness for \
          all six published strategies, JSONL/DOT/Perfetto exports, and \
          an optimality-gap report against the branch-and-bound oracle.")
    Term.(
      const run $ spec $ model_arg $ strategy_arg $ block_idx $ quiet
      $ jsonl_path $ dot_path $ timeline_path $ gap $ budget $ json_path
      $ file_arg)

(* ------------------------------------------------------------------ *)

let () =
  let doc = "DAG construction and heuristic instruction scheduling (MICRO-24 1991 reproduction)" in
  let info = Cmd.info "schedtool" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ gen_cmd; stats_cmd; build_cmd; schedule_cmd; compare_cmd;
            optimal_cmd; chain_cmd; batch_cmd; serve_cmd; client_cmd;
            top_cmd; dot_cmd; gantt_cmd; explain_cmd ]))
