(** Multi-process fleet runner: shards as separate OS worker processes
    with fault-tolerant supervision.  See fleet.mli for the contract. *)

module Json = Ds_util.Stats.Json

(* ------------------------------------------------------------------ *)
(* shard manifests *)

type manifest = {
  files : string list;
  algorithm : Ds_dag.Builder.algorithm;
  strategy : Ds_dag.Disambiguate.t;
  model : string;
  domains : int;
}

let manifest_to_json m =
  Json.Obj
    [ ("files", Json.List (List.map (fun f -> Json.String f) m.files));
      ("algorithm", Json.String (Ds_dag.Builder.to_string m.algorithm));
      ("strategy", Json.String (Ds_dag.Disambiguate.to_string m.strategy));
      ("model", Json.String m.model);
      ("domains", Json.Int m.domains) ]

let manifest_of_json ?(path = []) json =
  let ( let* ) = Result.bind in
  let* files = Json.get_list ~path "files" Json.decode_string json in
  let* algorithm_name = Json.get_string ~path "algorithm" json in
  let* algorithm =
    match Ds_dag.Builder.of_string algorithm_name with
    | Some a -> Ok a
    | None ->
        Json.decode_error ~path:(path @ [ "algorithm" ])
          (Printf.sprintf "unknown algorithm %S" algorithm_name)
  in
  let* strategy_name = Json.get_string ~path "strategy" json in
  let* strategy =
    match Ds_dag.Disambiguate.of_string strategy_name with
    | Some s -> Ok s
    | None ->
        Json.decode_error ~path:(path @ [ "strategy" ])
          (Printf.sprintf "unknown strategy %S" strategy_name)
  in
  let* model = Json.get_string ~path "model" json in
  let* domains = Json.get_int ~path "domains" json in
  Ok { files; algorithm; strategy; model; domains = max 1 domains }

let config_of_manifest m =
  match Ds_machine.Latency.by_name m.model with
  | None -> Error (Printf.sprintf "unknown latency model %S" m.model)
  | Some model ->
      Ok
        { Batch.section6 with
          Batch.algorithm = m.algorithm;
          opts =
            { Ds_dag.Opts.default with
              Ds_dag.Opts.model; strategy = m.strategy } }

let partition ~workers ~weight items =
  let items = Array.of_list items in
  let weights = Array.map weight items in
  (* largest first; the stable sort breaks ties by input position *)
  let order = Array.init (Array.length items) Fun.id in
  Array.stable_sort (fun i j -> compare weights.(j) weights.(i)) order;
  let workers = max 1 workers in
  let load = Array.make workers 0 and members = Array.make workers [] in
  Array.iter
    (fun i ->
      let lightest = ref 0 in
      for w = 1 to workers - 1 do
        if load.(w) < load.(!lightest) then lightest := w
      done;
      load.(!lightest) <- load.(!lightest) + weights.(i);
      members.(!lightest) <- i :: members.(!lightest))
    order;
  Array.map
    (fun is -> List.map (Array.get items) (List.sort compare is))
    members

let plan ~workers ~algorithm ~strategy ~model ~domains files =
  (* weight = file byte size: the only balance signal available without
     parsing; an unreadable file weighs 0 and its worker reports the
     failure, which is the degradation path, not an orchestrator error *)
  let weight f = try (Unix.stat f).Unix.st_size with Unix.Unix_error _ -> 0 in
  partition ~workers ~weight files
  |> Array.map (fun files -> { files; algorithm; strategy; model; domains })
  |> Array.to_list

(* ------------------------------------------------------------------ *)
(* supervision outcomes *)

type failure =
  | Exited of int
  | Signaled of int
  | Timed_out
  | Bad_output of string

let failure_to_string = function
  | Exited c -> Printf.sprintf "exit %d" c
  | Signaled s -> Printf.sprintf "signal %d" s
  | Timed_out -> "timeout"
  | Bad_output msg -> "bad output: " ^ msg

(** One supervised attempt, in attempt order.  [duration_s] is the
    orchestrator-observed spawn-to-settle time on the monotonic-leaning
    {!Ds_obs.Clock} (so never negative); [backoff_s] is the delay
    scheduled {e after} this attempt (0 for a success or for the final
    exhausted attempt); [outcome = None] means success. *)
type attempt = {
  duration_s : float;
  backoff_s : float;
  outcome : failure option;
}

type worker_log = {
  shard : int;
  files : string list;
  attempts : int;
  failures : failure list;
  attempt_log : attempt list;
  wall_s : float;
  report : Batch.report option;
}

type t = {
  workers : int;
  timeout_s : float;
  retries : int;
  corpus : string list;
  aggregate : Batch.report;
  logs : worker_log list;
}

let per_shard t = List.filter_map (fun l -> l.report) t.logs

let failed_shards t =
  List.filter_map
    (fun l -> if l.report = None then Some l.shard else None)
    t.logs

type progress = {
  shard : int;
  state : string;
  done_blocks : int;
  total_blocks : int;
  phase : string;
  rss_kb : int;
  beat_age_s : float;
  stalled : bool;
}

type options = {
  timeout_s : float;
  retries : int;
  backoff_s : float;
  poll_s : float;
  stall_s : float;
  heartbeat_s : float;
  on_progress : (progress list -> unit) option;
}

let default_options =
  { timeout_s = 60.0; retries = 2; backoff_s = 0.1; poll_s = 0.005;
    stall_s = 5.0; heartbeat_s = 0.5; on_progress = None }

(* ------------------------------------------------------------------ *)
(* temp-file hygiene: every temp the orchestrator creates (manifests,
   worker output captures, the progress log stream) is registered here,
   and a one-time [at_exit] sweep removes whatever is still registered —
   so Ctrl-C (the SIGINT handler exits 130), a failed-shards exit 4, or
   any exceptional path leaves the temp directory clean.  The normal
   path releases each file as soon as the run is done with it. *)

let temp_registry : (string, unit) Hashtbl.t = Hashtbl.create 16
let temp_lock = Mutex.create ()

let cleanup_temps () =
  Mutex.lock temp_lock;
  let paths = Hashtbl.fold (fun p () acc -> p :: acc) temp_registry [] in
  Hashtbl.reset temp_registry;
  Mutex.unlock temp_lock;
  List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) paths

let cleanup_installed = Atomic.make false

let register_temp p =
  if not (Atomic.exchange cleanup_installed true) then at_exit cleanup_temps;
  Mutex.lock temp_lock;
  Hashtbl.replace temp_registry p ();
  Mutex.unlock temp_lock

let release_temp p =
  Mutex.lock temp_lock;
  Hashtbl.remove temp_registry p;
  Mutex.unlock temp_lock;
  try Sys.remove p with Sys_error _ -> ()

(* live worker pids, so an interrupt can put the children down before
   the orchestrator exits *)
let live_pids : (int, unit) Hashtbl.t = Hashtbl.create 16
let pid_lock = Mutex.create ()

let track_pid pid =
  Mutex.lock pid_lock;
  Hashtbl.replace live_pids pid ();
  Mutex.unlock pid_lock

let untrack_pid pid =
  Mutex.lock pid_lock;
  Hashtbl.remove live_pids pid;
  Mutex.unlock pid_lock

let kill_live_workers () =
  Mutex.lock pid_lock;
  let pids = Hashtbl.fold (fun p () acc -> p :: acc) live_pids [] in
  Hashtbl.reset live_pids;
  Mutex.unlock pid_lock;
  List.iter
    (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
    pids

(* ------------------------------------------------------------------ *)
(* the supervisor *)

type slot_state =
  | Waiting of float (* earliest next-attempt time *)
  | Running of { pid : int; started : float }
  | Finished

type slot = {
  index : int;
  manifest : manifest;
  manifest_path : string;
  out_path : string;
  mutable state : slot_state;
  mutable attempts : int;
  mutable rev_failures : failure list;
  mutable rev_attempts : attempt list;
  mutable work_s : float;
  mutable result : Batch.report option;
}

let worker_env ?stream ?(heartbeat_s = default_options.heartbeat_s) ~shard
    ~attempt () =
  let ours e =
    String.starts_with ~prefix:"DAGSCHED_WORKER_SHARD=" e
    || String.starts_with ~prefix:"DAGSCHED_WORKER_ATTEMPT=" e
    || String.starts_with ~prefix:(Ds_obs.Obs.env_var ^ "=") e
    || String.starts_with ~prefix:(Ds_obs.Log.env_path ^ "=") e
    || String.starts_with ~prefix:(Ds_obs.Log.env_level ^ "=") e
    || String.starts_with ~prefix:(Ds_obs.Log.env_heartbeat ^ "=") e
  in
  let base =
    Array.to_list (Unix.environment ()) |> List.filter (fun e -> not (ours e))
  in
  (* workers inherit the orchestrator's observability state and ship
     their spans/metrics home inside the report JSON *)
  let obs =
    match Ds_obs.Obs.env_value () with
    | Some v -> [ Ds_obs.Obs.env_var ^ "=" ^ v ]
    | None -> []
  in
  (* when the fleet has a log stream, workers join it (append mode) and
     arm their heartbeat so the orchestrator can tail live progress *)
  let log_env =
    match stream with
    | None -> []
    | Some path ->
        [ Ds_obs.Log.env_path ^ "=" ^ path;
          (Ds_obs.Log.env_level ^ "="
          ^
          match Ds_obs.Log.level () with
          | Some l -> Ds_obs.Log.level_to_string l
          | None -> "info");
          Printf.sprintf "%s=%g" Ds_obs.Log.env_heartbeat heartbeat_s ]
  in
  Array.of_list
    (base @ obs @ log_env
    @ [ "DAGSCHED_WORKER_SHARD=" ^ string_of_int shard;
        "DAGSCHED_WORKER_ATTEMPT=" ^ string_of_int attempt ])

(* Worker reports may carry an "obs" section (trace spans + metrics
   snapshot) when the orchestrator enabled observability.  Spans are
   re-homed to the shard's fleet pid (shard + 1; the orchestrator is
   pid 0) and injected into the orchestrator's own recorder, forming
   the single fleet-wide timeline.  Observability must never fail the
   pipeline: a malformed obs section is dropped, the report stands. *)
let absorb_worker_obs ~shard json =
  match Json.member "obs" json with
  | None -> ()
  | Some obs ->
      (match Json.member "trace" obs with
      | Some tr ->
          (match Ds_obs.Trace.events_of_json tr with
          | Ok spans ->
              Ds_obs.Trace.inject
                (List.map (Ds_obs.Trace.reassign_pid (shard + 1)) spans)
          | Error _ -> ());
          (* counter samples (heap/GC gauges) ride in the same trace
             object and land on the worker's process lane too *)
          (match Ds_obs.Trace.counters_of_json tr with
          | Ok cs ->
              Ds_obs.Trace.inject_counters
                (List.map (Ds_obs.Trace.reassign_counter_pid (shard + 1)) cs)
          | Error _ -> ())
      | None -> ());
      (match Json.member "metrics" obs with
      | Some m -> (
          match Ds_obs.Metrics.snapshot_of_json m with
          | Ok s -> Ds_obs.Metrics.absorb s
          | Error _ -> ())
      | None -> ());
      (match Json.member "resource" obs with
      | Some r -> (
          match Ds_obs.Resource.of_json r with
          | Ok rows -> Ds_obs.Resource.absorb rows
          | Error _ -> ())
      | None -> ());
      (match Json.member "explain" obs with
      | Some e -> (
          match Ds_obs.Explain.of_json e with
          | Ok s -> Ds_obs.Explain.absorb s
          | Error _ -> ())
      | None -> ())

let parse_output slot =
  match In_channel.with_open_bin slot.out_path In_channel.input_all with
  | exception Sys_error msg -> Error (Bad_output ("unreadable output: " ^ msg))
  | text -> (
      match Json.of_string text with
      | Error msg -> Error (Bad_output ("output does not parse: " ^ msg))
      | Ok json -> (
          match Batch.report_of_json json with
          | Ok r ->
              absorb_worker_obs ~shard:slot.index json;
              Ok r
          | Error e ->
              Error (Bad_output ("bad report: " ^ Json.error_to_string e))))

let run ?(options = default_options) ~worker ~corpus manifests =
  let timeout_s = Float.max 1e-3 options.timeout_s in
  let retries = max 0 options.retries in
  let backoff_s = Float.max 0.0 options.backoff_s in
  let poll_s = Float.max 1e-4 options.poll_s in
  let stall_s = Float.max 1e-3 options.stall_s in
  let heartbeat_s = Float.max 0.0 options.heartbeat_s in
  let wall0 = Ds_obs.Clock.now () in
  let log_fleet ?(fields = []) level msg =
    Ds_obs.Log.log level ~scope:"fleet" ~fields msg
  in
  (* the heartbeat stream the workers append to: the configured log
     sink when there is one, else a registered temp file created only
     when someone is watching (--progress) *)
  let stream, stream_is_temp =
    match Ds_obs.Log.sink_path () with
    | Some p -> (Some p, false)
    | None ->
        if Option.is_some options.on_progress then (
          let p = Filename.temp_file "dagsched_log" ".jsonl" in
          register_temp p;
          (Some p, true))
        else (None, false)
  in
  let slots =
    List.mapi
      (fun index m ->
        let manifest_path = Filename.temp_file "dagsched_manifest" ".json" in
        register_temp manifest_path;
        Out_channel.with_open_text manifest_path (fun oc ->
            output_string oc (Json.to_string (manifest_to_json m));
            output_char oc '\n');
        let out_path = Filename.temp_file "dagsched_worker" ".json" in
        register_temp out_path;
        { index; manifest = m; manifest_path; out_path;
          state = Waiting 0.0; attempts = 0; rev_failures = [];
          rev_attempts = []; work_s = 0.0; result = None })
      manifests
  in
  let n = List.length slots in
  (* per-shard live-progress state fed by tailing the stream *)
  let hb_done = Array.make n 0
  and hb_total = Array.make n 0
  and hb_phase = Array.make n ""
  and hb_rss = Array.make n 0
  and hb_last = Array.make n Float.neg_infinity in
  let tail = Option.map Ds_obs.Log.tail_create stream in
  (* Ctrl-C: put the children down, then exit 130; the at_exit sweep
     removes every registered temp file on the way out *)
  let old_sigint =
    match
      Sys.signal Sys.sigint
        (Sys.Signal_handle
           (fun _ ->
             kill_live_workers ();
             exit 130))
    with
    | behavior -> Some behavior
    | exception (Invalid_argument _ | Sys_error _) -> None
  in
  let cleanup () =
    (match old_sigint with
    | Some b -> ( try Sys.set_signal Sys.sigint b with Sys_error _ -> ())
    | None -> ());
    (match tail with Some t -> Ds_obs.Log.tail_close t | None -> ());
    List.iter
      (fun s ->
        (match s.state with
        | Running { pid; _ } -> (
            (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
            untrack_pid pid;
            try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        | Waiting _ | Finished -> ());
        release_temp s.manifest_path;
        release_temp s.out_path)
      slots;
    if stream_is_temp then
      match stream with Some p -> release_temp p | None -> ()
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  let spawn slot =
    slot.attempts <- slot.attempts + 1;
    let spawn0 = Ds_obs.Clock.now () in
    let argv = Array.append worker [| slot.manifest_path |] in
    let fd =
      Unix.openfile slot.out_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
        0o600
    in
    let pid =
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          Unix.create_process_env argv.(0) argv
            (worker_env ?stream ~heartbeat_s ~shard:slot.index
               ~attempt:slot.attempts ())
            Unix.stdin fd Unix.stderr)
    in
    track_pid pid;
    let started = Ds_obs.Clock.now () in
    if Ds_obs.Trace.enabled () then
      Ds_obs.Trace.record ~cat:"fleet" ~name:"spawn"
        ~args:
          [ ("shard", Json.Int slot.index);
            ("attempt", Json.Int slot.attempts) ]
        ~start_s:spawn0 ~stop_s:started ();
    log_fleet Ds_obs.Log.Info
      ~fields:
        [ ("shard", Json.Int slot.index);
          ("attempt", Json.Int slot.attempts);
          ("os_pid", Json.Int pid) ]
      "spawn";
    slot.state <- Running { pid; started }
  in
  let settle slot started outcome =
    let stopped = Ds_obs.Clock.now () in
    let duration_s = Ds_obs.Clock.duration ~start:started ~stop:stopped in
    slot.work_s <- slot.work_s +. duration_s;
    let book ~backoff_s failure =
      slot.rev_attempts <-
        { duration_s; backoff_s; outcome = failure } :: slot.rev_attempts;
      if Ds_obs.Trace.enabled () then
        Ds_obs.Trace.record ~cat:"fleet" ~name:"attempt"
          ~args:
            [ ("shard", Json.Int slot.index);
              ("attempt", Json.Int slot.attempts);
              ( "outcome",
                Json.String
                  (match failure with
                  | None -> "ok"
                  | Some f -> failure_to_string f) ) ]
          ~start_s:started ~stop_s:stopped ()
    in
    match outcome with
    | Ok r ->
        book ~backoff_s:0.0 None;
        log_fleet Ds_obs.Log.Info
          ~fields:
            [ ("shard", Json.Int slot.index);
              ("attempt", Json.Int slot.attempts);
              ("duration_s", Json.Float duration_s) ]
          "attempt ok";
        slot.result <- Some r;
        slot.state <- Finished
    | Error f ->
        slot.rev_failures <- f :: slot.rev_failures;
        if slot.attempts > retries then begin
          book ~backoff_s:0.0 (Some f);
          log_fleet Ds_obs.Log.Error
            ~fields:
              [ ("shard", Json.Int slot.index);
                ("attempts", Json.Int slot.attempts);
                ("outcome", Json.String (failure_to_string f)) ]
            "shard failed";
          slot.state <- Finished
        end
        else begin
          (* exponential backoff: backoff_s, 2*backoff_s, 4*backoff_s, ... *)
          let delay = backoff_s *. (2.0 ** float_of_int (slot.attempts - 1)) in
          book ~backoff_s:delay (Some f);
          log_fleet Ds_obs.Log.Warn
            ~fields:
              [ ("shard", Json.Int slot.index);
                ("attempt", Json.Int slot.attempts);
                ("outcome", Json.String (failure_to_string f));
                ("backoff_s", Json.Float delay) ]
            "retry scheduled";
          slot.state <- Waiting (Ds_obs.Clock.now () +. delay)
        end
  in
  (* drain freshly appended heartbeats into the per-shard state *)
  let poll_heartbeats () =
    match tail with
    | None -> ()
    | Some t ->
        List.iter
          (fun (ev : Ds_obs.Log.event) ->
            if ev.Ds_obs.Log.scope = "heartbeat" then
              match Json.member "shard" (Json.Obj ev.Ds_obs.Log.fields) with
              | Some (Json.Int s) when s >= 0 && s < n ->
                  hb_last.(s) <- ev.Ds_obs.Log.ts_s;
                  let int_field k d =
                    match Json.member k (Json.Obj ev.Ds_obs.Log.fields) with
                    | Some (Json.Int v) -> v
                    | _ -> d
                  in
                  hb_done.(s) <- int_field "done" hb_done.(s);
                  hb_total.(s) <- int_field "total" hb_total.(s);
                  hb_rss.(s) <- int_field "rss_kb" hb_rss.(s);
                  (match
                     Json.member "phase" (Json.Obj ev.Ds_obs.Log.fields)
                   with
                  | Some (Json.String p) -> hb_phase.(s) <- p
                  | _ -> ())
              | _ -> ())
          (Ds_obs.Log.tail_poll t)
  in
  let progress_now now =
    List.map
      (fun slot ->
        let state, running_since =
          match (slot.state, slot.result) with
          | Running { started; _ }, _ -> ("running", Some started)
          | Waiting _, _ -> ("waiting", None)
          | Finished, Some _ -> ("ok", None)
          | Finished, None -> ("failed", None)
        in
        let i = slot.index in
        let beat_age_s, stalled =
          match running_since with
          | None -> (0.0, false)
          | Some started ->
              let last = Float.max started hb_last.(i) in
              let age = Float.max 0.0 (now -. last) in
              (age, stream <> None && age > stall_s)
        in
        { shard = i; state; done_blocks = hb_done.(i);
          total_blocks = hb_total.(i); phase = hb_phase.(i);
          rss_kb = hb_rss.(i); beat_age_s; stalled })
      slots
  in
  (* re-render only on a visible change (beat age alone doesn't count
     until it crosses the stall threshold) *)
  let last_key = ref [] in
  let render_progress now =
    match options.on_progress with
    | None -> ()
    | Some f ->
        let ps = progress_now now in
        let key =
          List.map
            (fun p ->
              ( p.shard, p.state, p.done_blocks, p.total_blocks, p.phase,
                p.rss_kb, p.stalled ))
            ps
        in
        if key <> !last_key then begin
          last_key := key;
          f ps
        end
  in
  let unfinished () = List.exists (fun s -> s.state <> Finished) slots in
  while unfinished () do
    let progressed = ref false in
    let now = Ds_obs.Clock.now () in
    poll_heartbeats ();
    List.iter
      (fun slot ->
        match slot.state with
        | Finished -> ()
        | Waiting not_before ->
            if not_before <= now then begin
              spawn slot;
              progressed := true
            end
        | Running { pid; started } -> (
            match Unix.waitpid [ Unix.WNOHANG ] pid with
            | 0, _ ->
                if now -. started > timeout_s then begin
                  log_fleet Ds_obs.Log.Warn
                    ~fields:
                      [ ("shard", Json.Int slot.index);
                        ("attempt", Json.Int slot.attempts);
                        ("os_pid", Json.Int pid) ]
                    "timeout, killing";
                  (* a kill on an already-exited pid still succeeds while
                     the zombie is unreaped, so this cannot race *)
                  (try Unix.kill pid Sys.sigkill
                   with Unix.Unix_error _ -> ());
                  ignore (Unix.waitpid [] pid);
                  untrack_pid pid;
                  settle slot started (Error Timed_out);
                  progressed := true
                end
            | _, status ->
                untrack_pid pid;
                let outcome =
                  match status with
                  | Unix.WEXITED 0 -> parse_output slot
                  | Unix.WEXITED c -> Error (Exited c)
                  | Unix.WSIGNALED s | Unix.WSTOPPED s -> Error (Signaled s)
                in
                settle slot started outcome;
                progressed := true))
      slots;
    render_progress now;
    if (not !progressed) && unfinished () then Unix.sleepf poll_s
  done;
  poll_heartbeats ();
  render_progress (Ds_obs.Clock.now ());
  let wall_s = Ds_obs.Clock.since wall0 in
  let logs =
    List.map
      (fun s ->
        { shard = s.index; files = s.manifest.files; attempts = s.attempts;
          failures = List.rev s.rev_failures;
          attempt_log = List.rev s.rev_attempts; wall_s = s.work_s;
          report = s.result })
      slots
  in
  let domains =
    match manifests with m :: _ -> max 1 m.domains | [] -> 1
  in
  let surviving = List.filter_map (fun s -> s.result) slots in
  let aggregate =
    Ds_obs.Trace.with_span ~cat:"fleet" "merge" (fun () ->
        Batch.report_merge ~domains ~wall_s surviving)
  in
  { workers = List.length manifests; timeout_s; retries; corpus; aggregate;
    logs }

(* ------------------------------------------------------------------ *)
(* equality (field-wise, NaN-tolerant on embedded reports) *)

let report_opt_equal a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> Batch.report_equal a b
  | _ -> false

let attempt_equal a b =
  Float.equal a.duration_s b.duration_s
  && Float.equal a.backoff_s b.backoff_s
  && a.outcome = b.outcome

let log_equal (a : worker_log) (b : worker_log) =
  a.shard = b.shard && a.files = b.files && a.attempts = b.attempts
  && a.failures = b.failures
  && List.length a.attempt_log = List.length b.attempt_log
  && List.for_all2 attempt_equal a.attempt_log b.attempt_log
  && Float.equal a.wall_s b.wall_s
  && report_opt_equal a.report b.report

let equal a b =
  a.workers = b.workers
  && Float.equal a.timeout_s b.timeout_s
  && a.retries = b.retries && a.corpus = b.corpus
  && Batch.report_equal a.aggregate b.aggregate
  && List.length a.logs = List.length b.logs
  && List.for_all2 log_equal a.logs b.logs

(* ------------------------------------------------------------------ *)
(* JSON: corpus/aggregate/per_shard plus a fleet supervision section *)

let failure_to_json = function
  | Exited c -> Json.Obj [ ("kind", Json.String "exit"); ("code", Json.Int c) ]
  | Signaled s ->
      Json.Obj [ ("kind", Json.String "signal"); ("signal", Json.Int s) ]
  | Timed_out -> Json.Obj [ ("kind", Json.String "timeout") ]
  | Bad_output msg ->
      Json.Obj
        [ ("kind", Json.String "bad-output"); ("message", Json.String msg) ]

let failure_of_json ~path json =
  let ( let* ) = Result.bind in
  let* kind = Json.get_string ~path "kind" json in
  match kind with
  | "exit" ->
      let* code = Json.get_int ~path "code" json in
      Ok (Exited code)
  | "signal" ->
      let* s = Json.get_int ~path "signal" json in
      Ok (Signaled s)
  | "timeout" -> Ok Timed_out
  | "bad-output" ->
      let* msg = Json.get_string ~path "message" json in
      Ok (Bad_output msg)
  | k ->
      Json.decode_error ~path:(path @ [ "kind" ])
        (Printf.sprintf "unknown failure kind %S" k)

let attempt_to_json a =
  Json.Obj
    [ ("duration_s", Json.Float a.duration_s);
      ("backoff_s", Json.Float a.backoff_s);
      ( "outcome",
        match a.outcome with
        | None -> Json.Null
        | Some f -> failure_to_json f ) ]

let attempt_of_json ~path json =
  let ( let* ) = Result.bind in
  let* duration_s = Json.get_float ~path "duration_s" json in
  let* backoff_s = Json.get_float ~path "backoff_s" json in
  let* outcome_json = Json.get_field ~path "outcome" json in
  let* outcome =
    match outcome_json with
    | Json.Null -> Ok None
    | f ->
        let* f = failure_of_json ~path:(path @ [ "outcome" ]) f in
        Ok (Some f)
  in
  Ok { duration_s; backoff_s; outcome }

let log_to_json (l : worker_log) =
  Json.Obj
    [ ("shard", Json.Int l.shard);
      ("files", Json.List (List.map (fun f -> Json.String f) l.files));
      ("status", Json.String (if l.report = None then "failed" else "ok"));
      ("attempts", Json.Int l.attempts);
      ("failures", Json.List (List.map failure_to_json l.failures));
      ("attempt_log", Json.List (List.map attempt_to_json l.attempt_log));
      ("wall_s", Json.Float l.wall_s) ]

let to_json t =
  Json.Obj
    [ ("workers", Json.Int t.workers);
      ("timeout_s", Json.Float t.timeout_s);
      ("retries", Json.Int t.retries);
      ("corpus", Json.List (List.map (fun l -> Json.String l) t.corpus));
      ("aggregate", Batch.report_to_json t.aggregate);
      ( "per_shard",
        Json.List (List.map Batch.report_to_json (per_shard t)) );
      ( "failed_shards",
        Json.List (List.map (fun i -> Json.Int i) (failed_shards t)) );
      ("fleet", Json.List (List.map log_to_json t.logs)) ]

let log_of_json ~path json =
  let ( let* ) = Result.bind in
  let* shard = Json.get_int ~path "shard" json in
  let* files = Json.get_list ~path "files" Json.decode_string json in
  let* status = Json.get_string ~path "status" json in
  let* ok =
    match status with
    | "ok" -> Ok true
    | "failed" -> Ok false
    | s ->
        Json.decode_error ~path:(path @ [ "status" ])
          (Printf.sprintf "unknown status %S" s)
  in
  let* attempts = Json.get_int ~path "attempts" json in
  let* failures = Json.get_list ~path "failures" failure_of_json json in
  let* attempt_log = Json.get_list ~path "attempt_log" attempt_of_json json in
  let* wall_s = Json.get_float ~path "wall_s" json in
  (* the per-shard report is carried in the top-level per_shard list and
     re-attached by of_json below *)
  Ok (ok, { shard; files; attempts; failures; attempt_log; wall_s; report = None })

let of_json ?(path = []) json =
  let ( let* ) = Result.bind in
  let* workers = Json.get_int ~path "workers" json in
  let* timeout_s = Json.get_float ~path "timeout_s" json in
  let* retries = Json.get_int ~path "retries" json in
  let* corpus = Json.get_list ~path "corpus" Json.decode_string json in
  let* aggregate_json = Json.get_field ~path "aggregate" json in
  let* aggregate =
    Batch.report_of_json ~path:(path @ [ "aggregate" ]) aggregate_json
  in
  let* reports =
    Json.get_list ~path "per_shard"
      (fun ~path x -> Batch.report_of_json ~path x)
      json
  in
  let* tagged_logs = Json.get_list ~path "fleet" log_of_json json in
  (* zip the surviving reports (shard order) back onto the "ok" logs *)
  let rec attach acc reports = function
    | [] ->
        if reports = [] then Ok (List.rev acc)
        else
          Json.decode_error ~path:(path @ [ "per_shard" ])
            "more reports than surviving workers"
    | (true, log) :: rest -> (
        match reports with
        | r :: reports -> attach ({ log with report = Some r } :: acc) reports rest
        | [] ->
            Json.decode_error ~path:(path @ [ "per_shard" ])
              "fewer reports than surviving workers")
    | (false, log) :: rest -> attach (log :: acc) reports rest
  in
  let* logs = attach [] reports tagged_logs in
  Ok { workers; timeout_s; retries; corpus; aggregate; logs }

(* supervision aggregates that are deterministic for a given corpus,
   fault spec and backoff schedule: attempts beyond the first, and the
   total backoff delay that was scheduled (computed from the exponential
   schedule, not measured — rounded to whole microseconds so the float
   repr is byte-stable) *)
let retries_used t =
  List.fold_left
    (fun acc (l : worker_log) -> acc + max 0 (l.attempts - 1))
    0 t.logs

let backoff_total_s t =
  let total =
    List.fold_left
      (fun acc (l : worker_log) ->
        List.fold_left
          (fun acc (a : attempt) -> acc +. a.backoff_s)
          acc l.attempt_log)
      0.0 t.logs
  in
  Float.round (total *. 1e6) /. 1e6

(* timing-free, so `schedtool fleet` stdout is byte-stable across
   --workers / --retries for a fault-free corpus; the supervision fields
   are deterministic (see above), not wall-clock measurements *)
let summary_to_json t =
  let a = t.aggregate in
  Json.Obj
    [ ("corpus", Json.List (List.map (fun l -> Json.String l) t.corpus));
      ("blocks", Json.Int a.Batch.blocks);
      ("insns", Json.Int a.Batch.insns);
      ("arcs", Json.Int a.Batch.arcs);
      ("original_cycles", Json.Int a.Batch.original_cycles);
      ("scheduled_cycles", Json.Int a.Batch.scheduled_cycles);
      ("stalls", Json.Int a.Batch.stalls);
      ( "failed_shards",
        Json.List (List.map (fun i -> Json.Int i) (failed_shards t)) );
      ("retries_used", Json.Int (retries_used t));
      ("backoff_s", Json.Float (backoff_total_s t)) ]

(* ------------------------------------------------------------------ *)
(* crash injection (test knob) *)

let sabotage_exit_code = 7

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some i -> i
      | None -> default)
  | None -> default

let maybe_sabotage () =
  match Sys.getenv_opt "DAGSCHED_WORKER_FAIL" with
  | None | Some "" -> ()
  | Some spec -> (
      let attempt = env_int "DAGSCHED_WORKER_ATTEMPT" 1 in
      let shard = env_int "DAGSCHED_WORKER_SHARD" 0 in
      let mode, upto, target =
        match String.split_on_char ':' spec with
        | [ m; n ] -> (m, int_of_string_opt n, None)
        | [ m; n; s ] -> (m, int_of_string_opt n, int_of_string_opt s)
        | _ -> (spec, None, None)
      in
      let applies =
        (match upto with Some n -> attempt <= n | None -> false)
        && match target with Some t -> t = shard | None -> true
      in
      if applies then
        match mode with
        | "exit" -> exit sabotage_exit_code
        | "truncate" ->
            (* half a report: parses as garbage, exercises Bad_output *)
            print_string "{\"domains\": 1, \"blocks\": ";
            exit 0
        | "hang" ->
            (* far past any sane timeout; the orchestrator must kill us.
               Leave a last gasp in the log stream first — the whole
               point of write-through logging is that these lines
               survive the SIGKILL that is about to arrive. *)
            Ds_obs.Log.log Ds_obs.Log.Warn ~scope:"worker"
              ~fields:
                [ ("mode", Ds_obs.Json.String "hang");
                  ("attempt", Ds_obs.Json.Int attempt) ]
              "sabotage: hanging";
            Ds_obs.Log.heartbeat ~force:true ~phase:"hang" ~done_:0 ~total:0 ();
            Unix.sleepf 3600.0;
            exit sabotage_exit_code
        | _ -> ())
