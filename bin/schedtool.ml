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

(* a worker-domain count: one pool holds at most Pool.max_domains *)
let jobs_conv =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n > Pool.max_domains ->
        Error
          (`Msg
            (Printf.sprintf "%d worker domains, at most %d" n Pool.max_domains))
    | r -> r
  in
  Arg.conv (parse, Format.pp_print_int)

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
(* observability: --trace / --log / --log-level / --progress on batch
   and serve *)

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
              summary table on stderr (spans, time and minor-heap words \
              per phase, then the run's GC totals).  The counts that \
              explain a phase's cost (arcs, table probes, alias entries \
              scanned, candidates examined, stall cycles) are its span's \
              args.  Report outputs are byte-identical with and without \
              tracing.")

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
              $(docv), truncating it first: heartbeats and diagnostics; \
              at $(b,--log-level debug) a $(b,serve) daemon adds one \
              $(i,request) event per request.  The file is written \
              through on every event (O_APPEND, no buffering), so it \
              survives crashes and kills.")

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

(* the obs flags, declared once *)
type obs = {
  trace : string option;
  log : string option;
  log_level : Log.level option;
  progress : bool;
}

let obs_term =
  let make trace log log_level progress = { trace; log; log_level; progress } in
  Term.(const make $ trace_arg $ log_arg $ log_level_arg $ progress_arg)

(* --progress echoes this process's heartbeats on stderr. *)
let obs_enable o =
  if o.trace <> None then Trace.enable ();
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

(* The run's process-wide GC totals, closing the phases table: the
   figures no single span can own (promotion, major allocation,
   collections, heap high-water). *)
let gc_totals () =
  let s = Trace.gc_totals () in
  Printf.sprintf
    "gc: %.2f promoted Mw, %.2f major Mw, %d minor / %d major collections, \
     top heap %.2f Mw\n"
    (s.Gc.promoted_words /. 1e6) (s.Gc.major_words /. 1e6)
    s.Gc.minor_collections s.Gc.major_collections
    (float_of_int s.Gc.top_heap_words /. 1e6)

(* After the run: write the Chrome trace (with the same round-trip
   self-check discipline as the report writers) and print the per-phase
   summary on stderr. *)
let obs_finish o =
  match o.trace with
  | None -> ()
  | Some path ->
      let spans = Trace.snapshot () in
      let json = Trace.to_json ~pid_names:[ (0, "schedtool") ] spans in
      let text = Stats.Json.to_string json ^ "\n" in
      (match Stats.Json.of_string text with
      | Ok j
        when (match Trace.events_of_json j with
             | Ok spans' -> spans' = spans
             | Error _ -> false) -> ()
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
          [ "phase"; "spans"; "total ms"; "max ms"; "minor Mw" ]
      in
      List.iter
        (fun (p : Trace.phase_stat) ->
          Table.add_row t
            [ p.Trace.phase; string_of_int p.Trace.spans;
              Printf.sprintf "%.3f" (p.Trace.total_us /. 1000.0);
              Printf.sprintf "%.3f" (p.Trace.max_us /. 1000.0);
              Printf.sprintf "%.2f" (float_of_int p.Trace.minor_words /. 1e6) ])
        (Trace.summary spans);
      prerr_string (Table.render t);
      prerr_string (gc_totals ())

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
          after := !after + score.Schedule.cycles;
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

(* Encode the report, check that it reads back to an equal report — exit 3 otherwise;
   [Batch.report_equal] is NaN-tolerant, since under structural [=] a
   valid report with a NaN field would fail its own check — and write
   it to [path] ('-' for stdout). *)
let write_report report path =
  let text =
    span_encode (fun () ->
        Stats.Json.to_string (Batch.report_to_json report) ^ "\n")
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
    let domains = if jobs <= 0 then None else Some jobs in
    let results, report = Batch.run_with_report ?domains config blocks in
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
      value & opt jobs_conv 0
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            (Printf.sprintf
               "Worker domains, at most %d (0 or absent: one per \
                recommended core)." Pool.max_domains))
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
          parallel across a pool of worker domains that take chunks of \
          64 blocks off one shared counter (deterministic: output is \
          independent of $(b,--jobs)).")
    Term.(
      const run $ builder_arg $ model_arg $ strategy_arg $ jobs $ json_path
      $ quiet $ obs_term $ files)

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
      obs =
    obs_enable obs;
    let d = Serve.default_options in
    let options =
      { Serve.domains = (if jobs <= 0 then 1 else jobs);
        max_entries = (if cache_entries <= 0 then d.Serve.max_entries else cache_entries);
        max_bytes = (if cache_bytes <= 0 then d.Serve.max_bytes else cache_bytes);
        max_frame = (if max_frame <= 0 then d.Serve.max_frame else max_frame);
        read_timeout_s = (if timeout <= 0.0 then d.Serve.read_timeout_s else timeout);
        backlog = (if backlog <= 0 then d.Serve.backlog else backlog) }
    in
    let code = Serve.run ~options ~socket () in
    obs_finish obs;
    exit code
  in
  let jobs =
    Arg.(
      value & opt jobs_conv 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            (Printf.sprintf
               "Domains the pipeline runs on, at most %d (default 1).  \
                With 1 the daemon schedules on its own domain; with N >= 2 \
                on a resident pool of N worker domains.  Part of the \
                report, so also part of the response bytes."
               Pool.max_domains))
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
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the scheduling daemon: accept length-prefixed JSON schedule \
          requests on a Unix socket, answer from a content-addressed \
          result cache (SIEVE eviction) or by running the batch pipeline on a resident \
          domain pool.  One request per connection, serviced sequentially; \
          a warm response is byte-identical to the cold response that \
          populated it.  SIGINT drains (in-flight request finishes) and \
          exits 130.")
    Term.(
      const run $ socket_arg $ jobs $ cache_entries $ cache_bytes
      $ max_frame $ timeout $ backlog $ obs_term)

let client_cmd =
  let run socket ping stats raw alg model strategy file =
    let payload =
      if raw then read_input file
      else
        Json.to_string
          (Serve.request_to_json
             (if ping then Serve.Ping
              else if stats then Serve.Stats
              else
                Serve.Schedule
                  { text = read_input file; builder = alg; strategy; model }))
    in
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
  let raw =
    Arg.(
      value & flag
      & info [ "raw" ]
          ~doc:"Send FILE's bytes as the request frame, unchanged: a JSON \
                request written by hand.")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send one request to a running $(b,schedtool serve) daemon and \
          print the JSON response: a schedule request built from an \
          assembly file (default), $(b,--ping), $(b,--stats), or a \
          request file sent as it is ($(b,--raw)).  \
          Exits 125 when the daemon is unreachable, 1 when it answers a \
          typed error.")
    Term.(
      const run $ socket_arg $ ping $ stats $ raw $ builder_arg $ model_arg
      $ strategy_arg $ file_arg)

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
    (* A published strategy over the whole corpus, one block at a time:
       its decision records and, when [timeline] asks, each block's
       issue spans, read off the same DAG and order (after [Fixup.run]
       when the strategy uses it), so no block is built twice. *)
    let corpus_run ~timeline sp =
      let config = Published.engine_config sp in
      let sg = Engine.signature config in
      let per_block b =
        let dag = Builder.build (Published.builder sp) opts b in
        let annot = Static_pass.compute_for (Published.heuristics_of sp) dag in
        let order, decisions = Engine.run_traced config ~annot dag in
        let spans =
          if not timeline then []
          else
            let s = Schedule.make dag order in
            let s = if sp.Published.postpass_fixup then Fixup.run s else s in
            let sim = Schedule.simulate s in
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
                     minor_words = 0;
                     pid = b.Block.id;
                     tid = 0;
                     args = [ ("node", Json.Int node) ] })
                 s.Schedule.order)
        in
        ( List.map
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
            decisions,
          spans )
      in
      let decisions, spans =
        List.fold_left
          (fun (decisions, spans) b ->
            let d, s = per_block b in
            (List.rev_append d decisions, List.rev_append s spans))
          ([], []) blocks
      in
      (List.rev decisions, List.rev spans)
    in
    let corpus_decisions sp = fst (corpus_run ~timeline:false sp) in
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
    let traced, spans =
      corpus_run ~timeline:(Option.is_some timeline_path) spec
    in
    (match jsonl_path with
    | None -> ()
    | Some path ->
        let text = Explain.decisions_to_jsonl traced in
        (match Explain.decisions_of_jsonl text with
        | Ok ds' when ds' = traced -> ()
        | _ ->
            Printf.eprintf
              "internal error: decision JSONL round trip mismatch\n";
            exit 3);
        write_export "jsonl" path text);
    (* -- timeline export: issue cycles as Chrome trace events -------- *)
    (match timeline_path with
    | None -> ()
    | Some path ->
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
    (* -- decisiveness: every published strategy over the corpus, a
       fold over its decisions; -A's are the ones --jsonl wrote ------- *)
    let stats =
      List.filter_map
        (fun sp ->
          let config = Published.engine_config sp in
          let decisions =
            if sp.Published.short = spec.Published.short then traced
            else corpus_decisions sp
          in
          let st =
            Explain.decisiveness ~signature:(Engine.signature config)
              ~keys:(Engine.key_labels config) decisions
          in
          if st.Explain.decisions = 0 then None else Some st)
        Published.all
      |> List.sort (fun a b -> compare a.Explain.signature b.Explain.signature)
    in
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
    (* -- optimality gap: oracle vs every strategy, in pipeline cycles - *)
    let gap_json = ref Json.Null in
    if gap then begin
      (* one oracle run per block: every builder's DAG allows the same
         orders, and the oracle times them in pipeline cycles, so the
         optimum does not depend on the builder *)
      let oracle_cache : (int, Optimal.result option) Hashtbl.t =
        Hashtbl.create 64
      in
      let oracle id dag =
        match Hashtbl.find_opt oracle_cache id with
        | Some r -> r
        | None ->
            let r =
              if Dag.length dag > gap_max_insns then None
              else
                let res = Optimal.run ~budget dag in
                if res.Optimal.optimal then Some res else None
            in
            Hashtbl.add oracle_cache id r;
            r
      in
      (* per strategy: its (block, insns, heuristic, optimal) rows and
         their heuristic and optimal totals *)
      let strategies =
        List.map
          (fun sp ->
            let per_block =
              List.filter_map
                (fun b ->
                  let dag = Builder.build (Published.builder sp) opts b in
                  Option.map
                    (fun res ->
                      ( b.Block.id, Dag.length dag,
                        Schedule.cycles (Published.run_on_dag sp dag),
                        res.Optimal.cycles ))
                    (oracle b.Block.id dag))
                blocks
            in
            let sum f = List.fold_left (fun a row -> a + f row) 0 per_block in
            ( sp, per_block, sum (fun (_, _, h, _) -> h),
              sum (fun (_, _, _, o) -> o) ))
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
          (fun (sp, per_block, heur, opt) ->
            let feasible = List.length per_block in
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
                   (fun (sp, per_block, heur, opt) ->
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
                block and report per-strategy optimality gaps, every order \
                timed by the pipeline simulator.")
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
            chain_cmd; batch_cmd; serve_cmd; client_cmd;
            dot_cmd; gantt_cmd; explain_cmd ]))
