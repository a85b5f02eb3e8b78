(** Multi-process fleet tests (the [@slow] alias; see test/dune).

    Two layers:

    - {e differential}: the fleet orchestrator must produce the same
      aggregate integer statistics as one in-process batch run on the
      nine-benchmark Table-3 corpus, for any worker count and retry
      budget, and its stdout summary JSON must be byte-identical across
      worker counts;
    - {e crash injection}: with the hidden [DAGSCHED_WORKER_FAIL] knob
      making workers exit nonzero, emit truncated JSON, or hang past the
      timeout on their first N attempts, the orchestrator must retry
      with backoff and converge to exactly the no-fault aggregate — and
      a shard whose budget is exhausted must degrade into
      [failed_shards], not abort the fleet. *)

open Dagsched

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let schedtool =
  match Sys.getenv_opt "SCHEDTOOL" with
  | Some p -> p
  | None -> Filename.concat (Filename.dirname Sys.executable_name)
              (Filename.concat ".." (Filename.concat "bin" "schedtool.exe"))

let worker = [| schedtool; "worker" |]

(* fast supervision constants so the retry/backoff paths run in
   milliseconds, not the CLI's human-scale defaults *)
let fast_options =
  { Fleet.default_options with Fleet.timeout_s = 30.0; backoff_s = 0.01 }

let ints (r : Batch.report) =
  ( r.Batch.blocks, r.Batch.insns, r.Batch.arcs, r.Batch.original_cycles,
    r.Batch.scheduled_cycles, r.Batch.stalls )

(* ------------------------------------------------------------------ *)
(* corpus on disk: workers re-read their files, so each program is
   written with the block labels `schedtool gen` emits — without them
   straight-line blocks would merge on re-parse *)

let write_corpus dir profiles =
  List.map
    (fun p ->
      let path = Filename.concat dir (p.Profiles.name ^ ".s") in
      Out_channel.with_open_text path (fun oc ->
          List.iter
            (fun b ->
              Printf.fprintf oc "B%d:\n%s" b.Block.id
                (Parser.print_program (Block.to_list b)))
            (Profiles.generate p));
      path)
    profiles

let with_corpus profiles f =
  let dir = Filename.temp_file "dagsched_fleet_test" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let files = write_corpus dir profiles in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) files;
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () -> f files)

(* in-process reference over the same bytes the workers read: one batch
   over every file's blocks in file order, as `schedtool batch` runs *)
let reference_aggregate files =
  let blocks =
    List.concat_map
      (fun path ->
        Cfg_builder.partition
          (Parser.parse_program
             (In_channel.with_open_text path In_channel.input_all)))
      files
  in
  snd (Batch.run_with_report ~domains:1 Batch.section6 blocks)

let plan ~workers files =
  Fleet.plan ~workers ~algorithm:Builder.Table_forward
    ~strategy:Disambiguate.Symbolic ~model:Latency.simple_risc.Latency.name
    ~domains:1 files

let run_fleet ?(options = fast_options) ~workers files =
  Fleet.run ~options ~worker ~corpus:files (plan ~workers files)

(* the knob must be scrubbed even on an assertion failure, or one failing
   test would sabotage every later fleet run in the process *)
let with_fault spec f =
  Unix.putenv "DAGSCHED_WORKER_FAIL" spec;
  Fun.protect
    ~finally:(fun () -> Unix.putenv "DAGSCHED_WORKER_FAIL" "")
    f

(* ------------------------------------------------------------------ *)
(* differential: fleet == in-process batch on the Table-3 corpus,
   invariant under worker count x retry budget *)

let test_differential () =
  with_corpus Profiles.benchmarks @@ fun files ->
  let expected = ints (reference_aggregate files) in
  let summaries = ref [] in
  List.iter
    (fun workers ->
      List.iter
        (fun retries ->
          let t =
            run_fleet ~options:{ fast_options with Fleet.retries } ~workers
              files
          in
          check_bool
            (Printf.sprintf "no failed shards (workers=%d retries=%d)" workers
               retries)
            true
            (Fleet.failed_shards t = []);
          check_bool
            (Printf.sprintf "aggregate == batch (workers=%d retries=%d)"
               workers retries)
            true
            (ints t.Fleet.aggregate = expected);
          check_int
            (Printf.sprintf "worker count recorded (workers=%d)" workers)
            workers t.Fleet.workers;
          summaries :=
            Stats.Json.to_string (Fleet.summary_to_json t) :: !summaries)
        [ 0; 2 ])
    [ 1; 3; 9 ];
  match !summaries with
  | [] -> Alcotest.fail "no fleet runs"
  | s :: rest ->
      List.iter
        (fun s' ->
          check_string "summary JSON byte-stable across workers x retries" s
            s')
        rest

(* ------------------------------------------------------------------ *)
(* crash injection *)

let crash_profiles = [ Profiles.grep; Profiles.linpack ]

let test_crash_exit () =
  with_corpus crash_profiles @@ fun files ->
  let baseline = run_fleet ~workers:2 files in
  check_bool "fault-free baseline" true (Fleet.failed_shards baseline = []);
  let t =
    with_fault "exit:2" (fun () ->
        run_fleet ~options:{ fast_options with Fleet.retries = 2 } ~workers:2
          files)
  in
  check_bool "all shards recover" true (Fleet.failed_shards t = []);
  check_bool "recovered aggregate == no-fault aggregate" true
    (ints t.Fleet.aggregate = ints baseline.Fleet.aggregate);
  List.iter
    (fun (l : Fleet.worker_log) ->
      check_int
        (Printf.sprintf "shard %d took three attempts" l.Fleet.shard)
        3 l.Fleet.attempts;
      check_bool
        (Printf.sprintf "shard %d recorded two sabotage exits" l.Fleet.shard)
        true
        (l.Fleet.failures
        = [ Fleet.Exited Fleet.sabotage_exit_code;
            Fleet.Exited Fleet.sabotage_exit_code ]))
    t.Fleet.logs

let test_crash_truncate () =
  with_corpus crash_profiles @@ fun files ->
  let baseline = run_fleet ~workers:2 files in
  let t =
    with_fault "truncate:1" (fun () ->
        run_fleet ~options:{ fast_options with Fleet.retries = 1 } ~workers:2
          files)
  in
  check_bool "all shards recover from truncated output" true
    (Fleet.failed_shards t = []);
  check_bool "recovered aggregate == no-fault aggregate" true
    (ints t.Fleet.aggregate = ints baseline.Fleet.aggregate);
  List.iter
    (fun (l : Fleet.worker_log) ->
      check_int "two attempts" 2 l.Fleet.attempts;
      match l.Fleet.failures with
      | [ Fleet.Bad_output _ ] -> ()
      | fs ->
          Alcotest.failf "shard %d: expected one Bad_output, got [%s]"
            l.Fleet.shard
            (String.concat "; " (List.map Fleet.failure_to_string fs)))
    t.Fleet.logs

let test_crash_hang () =
  with_corpus crash_profiles @@ fun files ->
  let baseline = run_fleet ~workers:2 files in
  (* only shard 0 hangs (third spec field), so the timeout must not
     disturb the healthy shard *)
  let t =
    with_fault "hang:1:0" (fun () ->
        run_fleet
          ~options:{ fast_options with Fleet.timeout_s = 1.0; retries = 1 }
          ~workers:2 files)
  in
  check_bool "all shards recover from a hung worker" true
    (Fleet.failed_shards t = []);
  check_bool "recovered aggregate == no-fault aggregate" true
    (ints t.Fleet.aggregate = ints baseline.Fleet.aggregate);
  List.iter
    (fun (l : Fleet.worker_log) ->
      if l.Fleet.shard = 0 then begin
        check_int "hung shard retried once" 2 l.Fleet.attempts;
        check_bool "hung shard recorded the timeout" true
          (l.Fleet.failures = [ Fleet.Timed_out ])
      end
      else begin
        check_int "healthy shard ran once" 1 l.Fleet.attempts;
        check_bool "healthy shard recorded no failures" true
          (l.Fleet.failures = [])
      end)
    t.Fleet.logs

let test_permanent_failure_degrades () =
  with_corpus crash_profiles @@ fun files ->
  let baseline = run_fleet ~workers:2 files in
  (* shard 1 fails every attempt: the fleet must degrade to shard 0's
     statistics, not abort *)
  let t =
    with_fault "exit:99:1" (fun () ->
        run_fleet ~options:{ fast_options with Fleet.retries = 1 } ~workers:2
          files)
  in
  check_bool "exactly shard 1 failed" true (Fleet.failed_shards t = [ 1 ]);
  check_int "one surviving report" 1 (List.length (Fleet.per_shard t));
  let surviving =
    List.filter (fun (l : Fleet.worker_log) -> l.Fleet.report <> None)
      baseline.Fleet.logs
    |> List.filter_map (fun (l : Fleet.worker_log) ->
           if l.Fleet.shard = 0 then l.Fleet.report else None)
  in
  (match (Fleet.per_shard t, surviving) with
  | [ got ], [ want ] ->
      check_bool "degraded aggregate covers exactly the surviving shard" true
        (ints got = ints want)
  | _ -> Alcotest.fail "expected exactly one surviving shard either side");
  (* and with every shard sabotaged the aggregate collapses to zero *)
  let all_dead =
    with_fault "exit:99" (fun () ->
        run_fleet ~options:{ fast_options with Fleet.retries = 0 } ~workers:2
          files)
  in
  check_bool "every shard failed" true
    (Fleet.failed_shards all_dead = [ 0; 1 ]);
  check_int "zero blocks survive" 0 all_dead.Fleet.aggregate.Batch.blocks

(* ------------------------------------------------------------------ *)
(* JSON round trips *)

let test_manifest_round_trip () =
  let m =
    { Fleet.files = [ "a.s"; "b.s"; "dir/c with space.s" ];
      algorithm = Builder.Table_backward;
      strategy = Disambiguate.Symbolic;
      model = Latency.deep_fp.Latency.name;
      domains = 4 }
  in
  let text = Stats.Json.to_string (Fleet.manifest_to_json m) in
  match Stats.Json.of_string text with
  | Error msg -> Alcotest.failf "manifest does not parse back: %s" msg
  | Ok json -> (
      match Fleet.manifest_of_json json with
      | Error e ->
          Alcotest.failf "manifest does not rebuild: %s"
            (Stats.Json.error_to_string e)
      | Ok m' -> check_bool "round trip preserves the manifest" true (m = m'))

let test_fleet_json_round_trip () =
  with_corpus crash_profiles @@ fun files ->
  (* include a permanently failed shard so the round trip covers the
     failed/ok report re-attachment in of_json *)
  let t =
    with_fault "exit:99:1" (fun () ->
        run_fleet ~options:{ fast_options with Fleet.retries = 1 } ~workers:2
          files)
  in
  let text = Stats.Json.to_string (Fleet.to_json t) in
  match Stats.Json.of_string text with
  | Error msg -> Alcotest.failf "fleet report does not parse back: %s" msg
  | Ok json -> (
      match Fleet.of_json json with
      | Error e ->
          Alcotest.failf "fleet report does not rebuild: %s"
            (Stats.Json.error_to_string e)
      | Ok t' ->
          check_bool "round trip preserves the fleet report" true
            (Fleet.equal t t'))

(* ------------------------------------------------------------------ *)
(* observability: supervision forensics and live progress *)

let log_off () =
  Log.set_level None;
  Log.close_sink ();
  Log.disable_heartbeat ();
  Log.set_context [];
  Log.reset ()

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* run [f] with the orchestrator logging Info+ into a temp JSONL sink
   (which the workers then inherit), returning the sink's parsed-or-raw
   contents alongside f's result *)
let with_log_stream f =
  let path = Filename.temp_file "dagsched_fleet_log" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      log_off ();
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Log.set_level (Some Log.Info);
      (match Log.set_sink ~append:false path with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "set_sink: %s" msg);
      let r = f () in
      Log.close_sink ();
      (r, read_file path))

let count_msg scope msg evs =
  List.length
    (List.filter
       (fun (e : Log.event) -> e.Log.scope = scope && e.Log.msg = msg)
       evs)

let test_supervision_logged () =
  with_corpus crash_profiles @@ fun files ->
  let t, stream =
    with_log_stream (fun () ->
        with_fault "exit:1:0" (fun () ->
            run_fleet ~options:{ fast_options with Fleet.retries = 1 }
              ~workers:2 files))
  in
  check_bool "no failed shards" true (Fleet.failed_shards t = []);
  match Log.events_of_jsonl stream with
  | Error e ->
      Alcotest.failf "stream unparseable: %s" (Stats.Json.error_to_string e)
  | Ok evs ->
      (* shard 0: spawn, sabotaged exit, retry, spawn, ok; shard 1:
         spawn, ok — every supervision decision is in the stream *)
      check_int "three spawns" 3 (count_msg "fleet" "spawn" evs);
      check_int "one retry" 1 (count_msg "fleet" "retry scheduled" evs);
      check_int "two successes" 2 (count_msg "fleet" "attempt ok" evs);
      check_int "no permanent failures" 0 (count_msg "fleet" "shard failed" evs);
      (* the workers appended to the same stream: forced parse/done
         heartbeats carry their shard via the log context *)
      check_bool "worker heartbeats present" true
        (List.exists (fun (e : Log.event) -> e.Log.scope = "heartbeat") evs);
      check_bool "heartbeats carry the shard" true
        (List.for_all
           (fun (e : Log.event) ->
             e.Log.scope <> "heartbeat"
             || (match List.assoc_opt "shard" e.Log.fields with
                | Some (Json.Int s) -> s = 0 || s = 1
                | _ -> false))
           evs)

let test_hang_forensics () =
  with_corpus crash_profiles @@ fun files ->
  let stalls = ref [] in
  let on_progress ps =
    List.iter
      (fun (p : Fleet.progress) ->
        if p.Fleet.stalled then stalls := p :: !stalls)
      ps
  in
  let t, stream =
    with_log_stream (fun () ->
        with_fault "hang:1:0" (fun () ->
            run_fleet
              ~options:
                { fast_options with
                  Fleet.timeout_s = 2.0; retries = 1; stall_s = 0.3;
                  heartbeat_s = 0.05; on_progress = Some on_progress }
              ~workers:2 files))
  in
  check_bool "fleet recovers from the hang" true (Fleet.failed_shards t = []);
  (* the stall alarm fired on the hung shard before the 2 s timeout *)
  check_bool "stall flagged before the kill" true
    (List.exists
       (fun (p : Fleet.progress) ->
         p.Fleet.shard = 0 && p.Fleet.state = "running"
         && p.Fleet.beat_age_s >= 0.3)
       !stalls);
  (* forensics: the SIGKILLed worker's last words survive on disk, and
     the prefix reader recovers every complete line *)
  let evs, _leftover = Log.events_of_jsonl_prefix stream in
  check_bool "hang announced by the worker" true
    (count_msg "worker" "sabotage: hanging" evs > 0);
  check_bool "last-gasp heartbeat from the hung shard" true
    (List.exists
       (fun (e : Log.event) ->
         e.Log.scope = "heartbeat"
         && List.assoc_opt "phase" e.Log.fields = Some (Json.String "hang")
         && List.assoc_opt "shard" e.Log.fields = Some (Json.Int 0))
       evs);
  check_bool "kill recorded by the orchestrator" true
    (count_msg "fleet" "timeout, killing" evs > 0)

let test_progress_differential () =
  with_corpus crash_profiles @@ fun files ->
  let t_off = run_fleet ~workers:2 files in
  let fired = ref 0 in
  let t_on =
    run_fleet
      ~options:
        { fast_options with
          Fleet.heartbeat_s = 0.02; on_progress = Some (fun _ -> incr fired) }
      ~workers:2 files
  in
  check_bool "progress callback fired" true (!fired > 0);
  check_string "summary JSON byte-identical with progress on"
    (Stats.Json.to_string (Fleet.summary_to_json t_off))
    (Stats.Json.to_string (Fleet.summary_to_json t_on))

(* ------------------------------------------------------------------ *)
(* temp hygiene: every exit path leaves the temp dir empty *)

let with_temp_dir f =
  let dir = Filename.temp_file "dagsched_tmpdir" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let old = Filename.get_temp_dir_name () in
  Filename.set_temp_dir_name dir;
  Fun.protect
    ~finally:(fun () ->
      Filename.set_temp_dir_name old;
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () -> f dir)

let leftovers dir = List.sort compare (Array.to_list (Sys.readdir dir))

let test_temp_cleanup () =
  with_corpus crash_profiles @@ fun files ->
  (* success path, with a progress watcher so the temp log stream is
     exercised too *)
  with_temp_dir (fun dir ->
      let t =
        run_fleet
          ~options:{ fast_options with Fleet.on_progress = Some (fun _ -> ()) }
          ~workers:2 files
      in
      check_bool "fleet ok" true (Fleet.failed_shards t = []);
      check_bool "no temps after success" true (leftovers dir = []));
  (* permanent-failure path — the route the CLI turns into exit 4 *)
  with_temp_dir (fun dir ->
      let t =
        with_fault "exit:99" (fun () ->
            run_fleet ~options:{ fast_options with Fleet.retries = 0 }
              ~workers:2 files)
      in
      check_bool "every shard failed" true
        (Fleet.failed_shards t = [ 0; 1 ]);
      check_bool "no temps after permanent failure" true (leftovers dir = []))

let test_sigint_cleans_up () =
  with_corpus [ Profiles.grep ] @@ fun files ->
  let dir = Filename.temp_file "dagsched_tmpdir" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () ->
      (* a fleet whose single worker hangs forever, its temp files
         pointed at our private dir *)
      let env =
        Array.of_list
          (("TMPDIR=" ^ dir) :: "DAGSCHED_WORKER_FAIL=hang:9"
          :: List.filter
               (fun s ->
                 not
                   (String.starts_with ~prefix:"TMPDIR=" s
                   || String.starts_with ~prefix:"DAGSCHED_WORKER_FAIL=" s))
               (Array.to_list (Unix.environment ())))
      in
      let argv =
        Array.append
          [| schedtool; "fleet"; "-w"; "1"; "--timeout"; "60"; "-q" |]
          (Array.of_list files)
      in
      let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
      let pid = Unix.create_process_env schedtool argv env Unix.stdin null null in
      Unix.close null;
      (* wait for the orchestrator's temp files: they appear just before
         it installs its SIGINT handler and starts supervising *)
      let deadline = Unix.gettimeofday () +. 30.0 in
      while Array.length (Sys.readdir dir) = 0
            && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.02
      done;
      check_bool "orchestrator created temp files" true
        (Array.length (Sys.readdir dir) > 0);
      Unix.sleepf 0.3;
      Unix.kill pid Sys.sigint;
      let _, status = Unix.waitpid [] pid in
      (match status with
      | Unix.WEXITED 130 -> ()
      | Unix.WEXITED n -> Alcotest.failf "expected exit 130, got exit %d" n
      | Unix.WSIGNALED s -> Alcotest.failf "killed by signal %d" s
      | Unix.WSTOPPED s -> Alcotest.failf "stopped by signal %d" s);
      check_bool "temp files removed on Ctrl-C" true (Sys.readdir dir = [||]))

(* ------------------------------------------------------------------ *)

let () =
  if not (Sys.file_exists schedtool) then begin
    Printf.eprintf "schedtool binary not found at %s (set SCHEDTOOL)\n"
      schedtool;
    exit 1
  end;
  Alcotest.run "fleet"
    [ ( "differential",
        [ Alcotest.test_case "fleet == shard across workers x retries" `Slow
            test_differential ] );
      ( "crash-injection",
        [ Alcotest.test_case "nonzero exit, retried" `Slow test_crash_exit;
          Alcotest.test_case "truncated output, retried" `Slow
            test_crash_truncate;
          Alcotest.test_case "hang, killed and retried" `Slow test_crash_hang;
          Alcotest.test_case "permanent failure degrades" `Slow
            test_permanent_failure_degrades ] );
      ( "json",
        [ Alcotest.test_case "manifest round trip" `Quick
            test_manifest_round_trip;
          Alcotest.test_case "fleet report round trip" `Slow
            test_fleet_json_round_trip ] );
      ( "observability",
        [ Alcotest.test_case "supervision decisions logged" `Slow
            test_supervision_logged;
          Alcotest.test_case "hang forensics survive the SIGKILL" `Slow
            test_hang_forensics;
          Alcotest.test_case "progress changes no summary byte" `Slow
            test_progress_differential ] );
      ( "hygiene",
        [ Alcotest.test_case "temps removed on success and failure" `Slow
            test_temp_cleanup;
          Alcotest.test_case "SIGINT: exit 130, temps removed" `Slow
            test_sigint_cleans_up ] ) ]
