(** Scheduling-as-a-service daemon with the request-addressed result
    cache in front of the batch pipeline.  See serve.mli for the
    contract and docs/FORMAT.md for the wire schemas. *)

module Json = Ds_obs.Json
module Frame = Ds_obs.Frame

let fail_env = "DAGSCHED_SERVE_FAIL"

(* ------------------------------------------------------------------ *)
(* requests *)

type request =
  | Ping
  | Stats
  | Metrics
  | Schedule of {
      text : string;
      builder : Ds_dag.Builder.algorithm;
      strategy : Ds_dag.Disambiguate.t;
      model : Ds_machine.Latency.t;
    }

(* the CLI defaults (schedtool build/batch): table-forward,
   base-offset, simple-risc *)
let default_builder = Ds_dag.Builder.Table_forward
let default_strategy = Ds_dag.Disambiguate.Base_offset
let default_model = Ds_machine.Latency.simple_risc

let opt_field ~path name decode json =
  match Json.member name json with
  | None -> Ok None
  | Some v -> Result.map Option.some (decode ~path:(path @ [ name ]) v)

let decode_name ~what of_string ~path v =
  match v with
  | Json.String s -> (
      match of_string s with
      | Some x -> Ok x
      | None ->
          Json.decode_error ~path (Printf.sprintf "unknown %s %S" what s))
  | other ->
      Json.decode_error ~path
        (Printf.sprintf "expected a %s name, found %s" what
           (Json.type_name other))

let request_of_json ?(path = []) json =
  let ( let* ) = Result.bind in
  match json with
  | Json.Obj _ -> (
      let* op =
        match Json.member "op" json with
        | None -> Ok "schedule"
        | Some (Json.String s) -> Ok s
        | Some other ->
            Json.decode_error ~path:(path @ [ "op" ])
              (Printf.sprintf "expected a string, found %s"
                 (Json.type_name other))
      in
      match op with
      | "ping" -> Ok Ping
      | "stats" -> Ok Stats
      | "metrics" -> Ok Metrics
      | "schedule" ->
          let* text = Json.get_string ~path "block" json in
          let* builder =
            opt_field ~path "builder"
              (decode_name ~what:"builder" Ds_dag.Builder.of_string)
              json
          in
          let* strategy =
            opt_field ~path "strategy"
              (decode_name ~what:"strategy" Ds_dag.Disambiguate.of_string)
              json
          in
          let* model =
            opt_field ~path "model"
              (decode_name ~what:"model" Ds_machine.Latency.by_name)
              json
          in
          Ok
            (Schedule
               { text;
                 builder = Option.value builder ~default:default_builder;
                 strategy = Option.value strategy ~default:default_strategy;
                 model = Option.value model ~default:default_model })
      | op ->
          Json.decode_error ~path:(path @ [ "op" ])
            (Printf.sprintf "unknown op %S" op))
  | other ->
      Json.decode_error ~path
        (Printf.sprintf "expected a request object, found %s"
           (Json.type_name other))

let request_to_json = function
  | Ping -> Json.Obj [ ("op", Json.String "ping") ]
  | Stats -> Json.Obj [ ("op", Json.String "stats") ]
  | Metrics -> Json.Obj [ ("op", Json.String "metrics") ]
  | Schedule { text; builder; strategy; model } ->
      Json.Obj
        [ ("op", Json.String "schedule");
          ("block", Json.String text);
          ("builder", Json.String (Ds_dag.Builder.to_string builder));
          ("strategy", Json.String (Ds_dag.Disambiguate.to_string strategy));
          ("model", Json.String model.Ds_machine.Latency.name) ]

(* ------------------------------------------------------------------ *)
(* responses *)

type error_kind =
  | Parse
  | Bad_request
  | Block_parse
  | Oversized
  | Malformed_frame
  | Internal

let error_kind_to_string = function
  | Parse -> "parse"
  | Bad_request -> "bad-request"
  | Block_parse -> "block-parse"
  | Oversized -> "oversized"
  | Malformed_frame -> "malformed-frame"
  | Internal -> "internal"

(* error responses carry the request id for correlation with the
   access log and trace spans; ok responses never do — a schedule
   response is the cache payload and must stay byte-identical across
   requests (and daemon restarts) *)
let error_response ?id kind message =
  Json.to_string
    (Json.Obj
       [ ("status", Json.String "error");
         ( "error",
           Json.Obj
             ([ ("kind", Json.String (error_kind_to_string kind));
                ("message", Json.String message) ]
             @ match id with
               | None -> []
               | Some id -> [ ("id", Json.String id) ]) ) ])

let fingerprint_hex fp = Printf.sprintf "%016Lx" fp

let result_to_json (r : Batch.result) =
  Json.Obj
    [ ("block_id", Json.Int r.Batch.block_id);
      ("insns", Json.Int r.Batch.insns);
      ("arcs", Json.Int r.Batch.dag_arcs);
      ("fingerprint", Json.String (fingerprint_hex r.Batch.fingerprint));
      ( "order",
        Json.List
          (Array.to_list (Array.map (fun i -> Json.Int i) r.Batch.order)) );
      ("original_cycles", Json.Int r.Batch.original_cycles);
      ("cycles", Json.Int r.Batch.cycles);
      ("stalls", Json.Int r.Batch.stalls) ]

(* ------------------------------------------------------------------ *)
(* daemon state *)

type t = {
  pool : Ds_util.Pool.t option;  (* None: schedule on the calling domain *)
  domains : int;
  cache : Cache.t;
  start_s : float;
  nonce : string;       (* per-daemon-start half of every request id *)
  mutable seq : int;    (* monotonic half *)
  window : Ds_obs.Window.t;
  access : Ds_obs.Log.Sink.t option;
  mutable served : int;
  mutable fail_budget : int;  (* DAGSCHED_SERVE_FAIL=raise:n countdown *)
}

let parse_fail_budget () =
  match Sys.getenv_opt fail_env with
  | None | Some "" -> 0
  | Some spec -> (
      match String.split_on_char ':' spec with
      | [ "raise"; n ] -> (
          match int_of_string_opt n with Some n -> max 0 n | None -> 0)
      | _ -> 0)

let create ?(domains = 1) ?max_entries ?max_bytes ?access () =
  let domains = max 1 domains in
  let start_s = Ds_obs.Clock.now () in
  { pool =
      (* one domain means this one: an idle worker would only turn
         every major-GC phase change into a cross-domain stop *)
      (if domains > 1 then Some (Ds_util.Pool.create ~domains ()) else None);
    domains;
    cache = Cache.create ?max_entries ?max_bytes ();
    start_s;
    nonce =
      (* distinct across daemon starts, stable within one: two daemons
         never hand out colliding ids even at the same counter value *)
      Printf.sprintf "%08x"
        (Hashtbl.hash (start_s, Unix.getpid ()) land 0x0fffffff);
    seq = 0;
    window = Ds_obs.Window.create "serve.request";
    access;
    served = 0;
    fail_budget = parse_fail_budget () }

let destroy t = Option.iter Ds_util.Pool.shutdown t.pool
let cache t = t.cache
let served t = t.served
let window t = t.window

let next_id t =
  t.seq <- t.seq + 1;
  Printf.sprintf "%s-%d" t.nonce t.seq

(* ------------------------------------------------------------------ *)
(* request handling *)

let stats_response t =
  let s = Cache.stats t.cache in
  Json.to_string
    (Json.Obj
       [ ("status", Json.String "ok");
         ("op", Json.String "stats");
         ("requests", Json.Int t.served);
         ( "cache",
           Json.Obj
             [ ("entries", Json.Int s.Cache.entries);
               ("bytes", Json.Int s.Cache.bytes);
               ("hits", Json.Int s.Cache.hits);
               ("misses", Json.Int s.Cache.misses);
               ("evictions", Json.Int s.Cache.evictions);
               ("rejects", Json.Int s.Cache.rejects) ] ) ])

let pong = Json.to_string
    (Json.Obj [ ("status", Json.String "ok"); ("op", Json.String "pong") ])

(* ------------------------------------------------------------------ *)
(* the metrics op: a full telemetry snapshot, typed both ways so
   `client --metrics-text` and `schedtool top` decode it *)

type metrics = {
  uptime_s : float;
  rss_kb : int;
  requests : int;
  cache_entries : int;
  cache_bytes : int;
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  cache_rejects : int;
  cache_max_entries : int;
  cache_max_bytes : int;
  registry : Ds_obs.Metrics.snapshot;
  windows : Ds_obs.Window.stats list;
}

(* the windows every metrics response answers, seconds *)
let report_windows = [ 1.0; 10.0; 60.0 ]

let metrics_of t =
  let s = Cache.stats t.cache in
  { uptime_s = Ds_obs.Clock.since t.start_s;
    rss_kb = Ds_obs.Log.rss_kb ();
    requests = t.served;
    cache_entries = s.Cache.entries;
    cache_bytes = s.Cache.bytes;
    cache_hits = s.Cache.hits;
    cache_misses = s.Cache.misses;
    cache_evictions = s.Cache.evictions;
    cache_rejects = s.Cache.rejects;
    cache_max_entries = Cache.max_entries t.cache;
    cache_max_bytes = Cache.max_bytes t.cache;
    registry = Ds_obs.Metrics.snapshot ();
    windows =
      List.map
        (fun w -> Ds_obs.Window.stats t.window ~window_s:w)
        report_windows }

let metrics_to_json m =
  Json.Obj
    [ ("status", Json.String "ok");
      ("op", Json.String "metrics");
      ("uptime_s", Json.Float m.uptime_s);
      ("rss_kb", Json.Int m.rss_kb);
      ("requests", Json.Int m.requests);
      ( "cache",
        Json.Obj
          [ ("entries", Json.Int m.cache_entries);
            ("bytes", Json.Int m.cache_bytes);
            ("hits", Json.Int m.cache_hits);
            ("misses", Json.Int m.cache_misses);
            ("evictions", Json.Int m.cache_evictions);
            ("rejects", Json.Int m.cache_rejects);
            ("max_entries", Json.Int m.cache_max_entries);
            ("max_bytes", Json.Int m.cache_max_bytes) ] );
      ("metrics", Ds_obs.Metrics.snapshot_to_json m.registry);
      ( "windows",
        Json.List (List.map Ds_obs.Window.stats_to_json m.windows) ) ]

let metrics_of_json ?(path = []) json =
  let ( let* ) = Result.bind in
  let* uptime_s = Json.get_float ~path "uptime_s" json in
  let* rss_kb = Json.get_int ~path "rss_kb" json in
  let* requests = Json.get_int ~path "requests" json in
  let* cache_json = Json.get_field ~path "cache" json in
  let cpath = path @ [ "cache" ] in
  let* cache_entries = Json.get_int ~path:cpath "entries" cache_json in
  let* cache_bytes = Json.get_int ~path:cpath "bytes" cache_json in
  let* cache_hits = Json.get_int ~path:cpath "hits" cache_json in
  let* cache_misses = Json.get_int ~path:cpath "misses" cache_json in
  let* cache_evictions = Json.get_int ~path:cpath "evictions" cache_json in
  let* cache_rejects = Json.get_int ~path:cpath "rejects" cache_json in
  let* cache_max_entries = Json.get_int ~path:cpath "max_entries" cache_json in
  let* cache_max_bytes = Json.get_int ~path:cpath "max_bytes" cache_json in
  let* registry_json = Json.get_field ~path "metrics" json in
  let* registry =
    Ds_obs.Metrics.snapshot_of_json ~path:(path @ [ "metrics" ]) registry_json
  in
  let* windows_json = Json.get_field ~path "windows" json in
  let* windows =
    match windows_json with
    | Json.List ws ->
        let rec go acc i = function
          | [] -> Ok (List.rev acc)
          | w :: rest ->
              let* s =
                Ds_obs.Window.stats_of_json
                  ~path:(path @ [ Printf.sprintf "windows[%d]" i ])
                  w
              in
              go (s :: acc) (i + 1) rest
        in
        go [] 0 ws
    | other ->
        Json.decode_error ~path:(path @ [ "windows" ])
          (Printf.sprintf "expected a list, found %s" (Json.type_name other))
  in
  Ok
    { uptime_s; rss_kb; requests; cache_entries; cache_bytes; cache_hits;
      cache_misses; cache_evictions; cache_rejects; cache_max_entries;
      cache_max_bytes; registry; windows }

let metrics_response t = Json.to_string (metrics_to_json (metrics_of t))

(* cache occupancy and request totals are exposed from the exact
   always-on stats above; the same events may also live in the gated
   registry, so drop the duplicates from its rendering *)
let registry_duplicates =
  [ "cache.hits"; "cache.misses"; "cache.evictions"; "cache.bytes";
    "cache.entries"; "serve.requests" ]

let prometheus_of_metrics m =
  let buf = Buffer.create 4096 in
  let prefix = "dagsched_" in
  let module P = Ds_obs.Prom in
  P.gauge buf ~prefix "uptime_seconds" m.uptime_s;
  P.gauge buf ~prefix "rss_kilobytes" (float_of_int m.rss_kb);
  P.counter buf ~prefix "requests" m.requests;
  P.gauge buf ~prefix "cache_entries" (float_of_int m.cache_entries);
  P.gauge buf ~prefix "cache_bytes" (float_of_int m.cache_bytes);
  P.gauge buf ~prefix "cache_entries_limit" (float_of_int m.cache_max_entries);
  P.gauge buf ~prefix "cache_bytes_limit" (float_of_int m.cache_max_bytes);
  P.counter buf ~prefix "cache_hits" m.cache_hits;
  P.counter buf ~prefix "cache_misses" m.cache_misses;
  P.counter buf ~prefix "cache_evictions" m.cache_evictions;
  P.counter buf ~prefix "cache_rejects" m.cache_rejects;
  P.snapshot buf ~prefix
    { m.registry with
      Ds_obs.Metrics.counters =
        List.filter
          (fun (name, _) -> not (List.mem name registry_duplicates))
          m.registry.Ds_obs.Metrics.counters };
  P.windows buf ~prefix m.windows;
  Buffer.contents buf

(* the cold path: full pipeline on the calling domain (one domain) or
   the resident pool, then encode.  The response text is entirely
   deterministic for the request and the daemon's domain count — timing
   fields are zeroed — so it IS the cache payload, and a warm response
   is byte-identical by construction. *)
let schedule_cold t ~text ~builder ~strategy ~model =
  if t.fail_budget > 0 then begin
    t.fail_budget <- t.fail_budget - 1;
    failwith (fail_env ^ ": injected pipeline failure")
  end;
  match Ds_isa.Parser.parse_program_result text with
  | Error msg -> Error (Block_parse, msg)
  | Ok insns ->
      let blocks = Ds_cfg.Builder.partition insns in
      let config =
        { Batch.section6 with
          Batch.algorithm = builder;
          opts =
            { Ds_dag.Opts.default with
              Ds_dag.Opts.model; strategy } }
      in
      let results =
        match t.pool with
        | None -> Batch.run_here config blocks
        | Some pool -> Batch.run_on ~pool config blocks
      in
      let fingerprint =
        List.fold_left
          (fun h (r : Batch.result) ->
            Cache.hash_fold_int64 h r.Batch.fingerprint)
          Cache.hash_seed results
      in
      let report =
        { (Batch.report ~domains:t.domains ~wall_s:0.0 results) with
          Batch.block_s_mean = 0.0;
          block_s_max = 0.0 }
      in
      let json =
        Json.Obj
          [ ("status", Json.String "ok");
            ("op", Json.String "schedule");
            ("fingerprint", Json.String (fingerprint_hex fingerprint));
            ("report", Batch.report_to_json report);
            ("results", Json.List (List.map result_to_json results)) ]
      in
      Ok (Json.to_string json)

let m_requests = Ds_obs.Metrics.counter "serve.requests"

(* per-request metadata for the access log and windowed RED metrics:
   op name, cache disposition and outcome (["ok"] or the error kind) *)
type disposition = { d_op : string; d_cache : string; d_outcome : string }

let ok_disp ~op ?(cache = "-") () = { d_op = op; d_cache = cache; d_outcome = "ok" }
let hit_disp = ok_disp ~op:"schedule" ~cache:"hit" ()

(* a request that missed the cache: decoded, and if it is a schedule
   request, counted as a miss and run cold; an ok response is cached
   under the request bytes *)
let handle_request t ~id payload json =
  match request_of_json json with
  | Error e ->
      ( error_response ~id Bad_request (Json.error_to_string e),
        { d_op = "-"; d_cache = "-"; d_outcome = "bad-request" } )
  | Ok Ping -> (pong, ok_disp ~op:"ping" ())
  | Ok Stats -> (stats_response t, ok_disp ~op:"stats" ())
  | Ok Metrics -> (metrics_response t, ok_disp ~op:"metrics" ())
  | Ok (Schedule { text; builder; strategy; model }) -> (
      Cache.count_miss t.cache;
      match schedule_cold t ~text ~builder ~strategy ~model with
      | Error (kind, msg) ->
          ( error_response ~id kind msg,
            { d_op = "schedule"; d_cache = "miss";
              d_outcome = error_kind_to_string kind } )
      | Ok response ->
          Cache.put t.cache payload response;
          (response, ok_disp ~op:"schedule" ~cache:"miss" ()))

(* one JSONL access line per request, through the untorn [Log.Sink]
   writer (single write(2), O_APPEND): survives SIGKILL, shareable *)
let access_write t ~ts ~id ~op ~cache ~bytes_in ~bytes_out ~dur_us ~outcome =
  match t.access with
  | None -> ()
  | Some sink ->
      Ds_obs.Log.Sink.write_line sink
        (Json.to_string
           (Json.Obj
              [ ("ts", Json.Float ts);
                ("id", Json.String id);
                ("op", Json.String op);
                ("cache", Json.String cache);
                ("bytes_in", Json.Int bytes_in);
                ("bytes_out", Json.Int bytes_out);
                ("dur_us", Json.Int dur_us);
                ("outcome", Json.String outcome) ]))

let handle_payload t ~id payload =
  let t0 = Ds_obs.Clock.now () in
  let response, disp =
    try
      (* the request bytes are the key: a hit decodes nothing, and since
         only schedule responses are cached, a hit is a schedule *)
      match Cache.find t.cache payload with
      | Some response -> (response, hit_disp)
      | None -> (
          match Json.of_string payload with
          | Error msg ->
              ( error_response ~id Parse msg,
                { d_op = "-"; d_cache = "-"; d_outcome = "parse" } )
          | Ok json -> handle_request t ~id payload json)
    with e ->
      ( error_response ~id Internal (Printexc.to_string e),
        { d_op = "-"; d_cache = "-"; d_outcome = "internal" } )
  in
  t.served <- t.served + 1;
  Ds_obs.Metrics.incr m_requests;
  let dur_s = Ds_obs.Clock.since t0 in
  let error = disp.d_outcome <> "ok" in
  Ds_obs.Window.observe_s ~error t.window dur_s;
  let dur_us = int_of_float (Float.round (dur_s *. 1e6)) in
  access_write t ~ts:t0 ~id ~op:disp.d_op ~cache:disp.d_cache
    ~bytes_in:(String.length payload)
    ~bytes_out:(String.length response)
    ~dur_us ~outcome:disp.d_outcome;
  if Ds_obs.Log.enabled Ds_obs.Log.Debug then
    Ds_obs.Log.log Ds_obs.Log.Debug ~scope:"serve"
      ~fields:
        [ ("id", Json.String id);
          ("op", Json.String disp.d_op);
          ("cache", Json.String disp.d_cache);
          ("dur_us", Json.Int dur_us);
          ("outcome", Json.String disp.d_outcome) ]
      "request";
  response

let handle_text t payload = handle_payload t ~id:(next_id t) payload

(* ------------------------------------------------------------------ *)
(* the daemon *)

type options = {
  domains : int;
  max_entries : int;
  max_bytes : int;
  max_frame : int;
  read_timeout_s : float;
  backlog : int;
  service_obs : bool;
  access_log : string option;
}

let default_options =
  { domains = 1;
    max_entries = 4096;
    max_bytes = 256 * 1024 * 1024;
    max_frame = Frame.default_max_bytes;
    read_timeout_s = 10.0;
    backlog = 128;
    service_obs = true;
    access_log = None }

let log_serve ?(fields = []) level msg =
  Ds_obs.Log.log level ~scope:"serve" ~fields msg

(* one connection: one framed request, one framed response.  All frame
   damage answers a typed error when the peer can still hear it; the
   daemon itself never dies for a connection's sake. *)
let handle_connection t ~max_frame fd =
  (* the id is minted per connection so frame-level damage (which never
     reaches request handling) still correlates its error response,
     log line and access-log line *)
  let id = next_id t in
  let t0 = Ds_obs.Clock.now () in
  let respond text =
    try Frame.write fd text
    with Unix.Unix_error _ ->
      (* peer vanished between request and response; nothing to do *)
      log_serve Ds_obs.Log.Warn
        ~fields:[ ("id", Json.String id) ]
        "client gone before response"
  in
  let frame_error kind message =
    respond (error_response ~id kind message);
    let dur_us =
      int_of_float (Float.round (Ds_obs.Clock.since t0 *. 1e6))
    in
    access_write t ~ts:t0 ~id ~op:"-" ~cache:"-" ~bytes_in:0
      ~bytes_out:0 ~dur_us ~outcome:(error_kind_to_string kind)
  in
  let reader = Frame.reader fd in
  match Frame.read ~max_bytes:max_frame reader with
  | Ok payload ->
      let args =
        if Ds_obs.Trace.enabled () then
          [ ("bytes", Json.Int (String.length payload));
            ("id", Json.String id) ]
        else []
      in
      let response =
        Ds_obs.Trace.with_span ~cat:"serve" ~args "request" (fun () ->
            handle_payload t ~id payload)
      in
      respond response
  | Error Frame.Closed ->
      (* disconnect before/inside the request frame: log, move on *)
      log_serve Ds_obs.Log.Warn
        ~fields:[ ("id", Json.String id) ]
        "client disconnected mid-request"
  | Error Frame.Timeout -> frame_error Malformed_frame "request read timed out"
  | Error (Frame.Oversized n) ->
      frame_error Oversized
        (Printf.sprintf "frame of %d bytes exceeds the %d-byte cap" n
           max_frame)
  | Error (Frame.Malformed msg) -> frame_error Malformed_frame msg

let run ?(options = default_options) ~socket () =
  let draining = Atomic.make false in
  match
    match options.access_log with
    | None -> Ok None
    | Some path -> Result.map Option.some (Ds_obs.Log.Sink.open_ ~append:false path)
  with
  | Error msg ->
      Printf.eprintf "serve: cannot open access log: %s\n%!" msg;
      125
  | Ok access -> (
      let close_access () =
        match access with Some s -> Ds_obs.Log.Sink.close s | None -> ()
      in
      if options.service_obs then Ds_obs.Window.enable ();
      match
        let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        (try
           if Sys.file_exists socket then Unix.unlink socket;
           Unix.bind lfd (Unix.ADDR_UNIX socket);
           Unix.listen lfd (max 1 options.backlog)
         with e ->
           (try Unix.close lfd with Unix.Unix_error _ -> ());
           raise e);
        lfd
      with
      | exception Unix.Unix_error (err, _, _) ->
          Printf.eprintf "serve: cannot bind %s: %s\n%!" socket
            (Unix.error_message err);
          close_access ();
          125
      | exception Sys_error msg ->
          Printf.eprintf "serve: cannot bind %s: %s\n%!" socket msg;
          close_access ();
          125
      | lfd ->
      let state =
        create ~domains:options.domains ~max_entries:options.max_entries
          ~max_bytes:options.max_bytes ?access ()
      in
      let old_sigint =
        match
          Sys.signal Sys.sigint
            (Sys.Signal_handle (fun _ -> Atomic.set draining true))
        with
        | behavior -> Some behavior
        | exception (Invalid_argument _ | Sys_error _) -> None
      in
      let cleanup () =
        (match old_sigint with
        | Some b -> ( try Sys.set_signal Sys.sigint b with Sys_error _ -> ())
        | None -> ());
        (try Unix.close lfd with Unix.Unix_error _ -> ());
        (try Unix.unlink socket with Unix.Unix_error _ | Sys_error _ -> ());
        close_access ();
        destroy state
      in
      Fun.protect ~finally:cleanup @@ fun () ->
      log_serve Ds_obs.Log.Info
        ~fields:
          [ ("socket", Json.String socket);
            ("domains", Json.Int options.domains) ]
        "listening";
      Ds_obs.Log.heartbeat ~force:true ~phase:"listening" ~done_:0 ~total:0 ();
      while not (Atomic.get draining) do
        match Unix.select [ lfd ] [] [] 0.25 with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | [], _, _ ->
            (* idle tick: liveness heartbeat (rate-limited) *)
            Ds_obs.Log.heartbeat ~phase:"idle" ~done_:state.served
              ~total:state.served ()
        | _ :: _, _, _ -> (
            match Unix.accept lfd with
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
            | exception
                Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
                ()
            | fd, _ ->
                Fun.protect
                  ~finally:(fun () ->
                    try Unix.close fd with Unix.Unix_error _ -> ())
                  (fun () ->
                    (try
                       Unix.setsockopt_float fd Unix.SO_RCVTIMEO
                         options.read_timeout_s
                     with Unix.Unix_error _ | Invalid_argument _ -> ());
                    handle_connection state ~max_frame:options.max_frame fd);
                Ds_obs.Log.heartbeat ~phase:"serve" ~done_:state.served
                  ~total:state.served ())
      done;
      log_serve Ds_obs.Log.Info
        ~fields:[ ("served", Json.Int state.served) ]
        "drained";
      Ds_obs.Log.heartbeat ~force:true ~phase:"drained" ~done_:state.served
        ~total:state.served ();
      130)

(* ------------------------------------------------------------------ *)
(* a minimal blocking client, shared by `schedtool client`, the bench
   load generator and the protocol tests *)

let request_once ?(max_frame = Frame.default_max_bytes) ~socket payload =
  match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (err, _, _) ->
      Error (Unix.error_message err)
  | fd -> (
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      @@ fun () ->
      match Unix.connect fd (Unix.ADDR_UNIX socket) with
      | exception Unix.Unix_error (err, _, _) ->
          Error
            (Printf.sprintf "cannot connect to %s: %s" socket
               (Unix.error_message err))
      | () -> (
          match Frame.write fd payload with
          | exception Unix.Unix_error (err, _, _) ->
              Error ("write failed: " ^ Unix.error_message err)
          | () -> (
              match Frame.read ~max_bytes:max_frame (Frame.reader fd) with
              | Ok response -> Ok response
              | Error e -> Error (Frame.error_to_string e))))
