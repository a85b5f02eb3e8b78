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
   request's trace span; ok responses never do — a schedule
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

(* The request fingerprint is a 64-bit FNV-1a fold of the per-block
   fingerprints.  It is part of the response bytes, so it stays FNV-1a
   whatever hash addresses the cache.  The accumulator is a local ref no
   closure captures: a fold allocates only its result. *)
let fingerprint_seed = 0xcbf29ce484222325L

let fold_fingerprint h v =
  let h = ref h in
  for i = 0 to 7 do
    h :=
      Int64.mul
        (Int64.logxor !h
           (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL))
        0x100000001b3L
  done;
  !h

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
  nonce : string;       (* per-daemon-start half of every request id *)
  mutable seq : int;    (* monotonic half *)
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

let create ?(domains = 1) ?max_entries ?max_bytes () =
  let domains = max 1 domains in
  let start_s = Ds_obs.Clock.now () in
  { pool =
      (* one domain means this one: an idle worker would only turn
         every major-GC phase change into a cross-domain stop *)
      (if domains > 1 then Some (Ds_util.Pool.create ~domains ()) else None);
    domains;
    cache = Cache.create ?max_entries ?max_bytes ();
    nonce =
      (* distinct across daemon starts, stable within one: two daemons
         never hand out colliding ids even at the same counter value *)
      Printf.sprintf "%08x"
        (Hashtbl.hash (start_s, Unix.getpid ()) land 0x0fffffff);
    seq = 0;
    served = 0;
    fail_budget = parse_fail_budget () }

let destroy t = Option.iter Ds_util.Pool.shutdown t.pool
let cache t = t.cache
let served t = t.served

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
            fold_fingerprint h r.Batch.fingerprint)
          fingerprint_seed results
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

(* per-request metadata for the request span: op name, cache
   disposition and outcome (["ok"] or the error kind) *)
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

(* the one per-request record: a "request" trace span from [t0] to
   now, recorded while tracing is on *)
let record_request ~t0 ~id disp ~bytes_in ~bytes_out =
  if Ds_obs.Trace.enabled () then
    Ds_obs.Trace.record ~cat:"serve" ~name:"request"
      ~args:
        [ ("id", Json.String id);
          ("op", Json.String disp.d_op);
          ("cache", Json.String disp.d_cache);
          ("bytes_in", Json.Int bytes_in);
          ("bytes_out", Json.Int bytes_out);
          ("outcome", Json.String disp.d_outcome) ]
      ~start_s:t0 ~stop_s:(Ds_obs.Clock.now ()) ()

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
  record_request ~t0 ~id disp ~bytes_in:(String.length payload)
    ~bytes_out:(String.length response);
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
}

let default_options =
  { domains = 1;
    max_entries = 4096;
    max_bytes = 256 * 1024 * 1024;
    max_frame = Frame.default_max_bytes;
    read_timeout_s = 10.0;
    backlog = 128 }

(* one connection: one framed request, one framed response.  All frame
   damage answers a typed error when the peer can still hear it; the
   daemon itself never dies for a connection's sake. *)
let handle_connection t ~max_frame fd =
  (* the id is minted per connection so frame-level damage (which never
     reaches request handling) still correlates its error response and
     its request span *)
  let id = next_id t in
  let t0 = Ds_obs.Clock.now () in
  let respond text =
    (* a peer that vanished between request and response needs nothing *)
    try Frame.write fd text with Unix.Unix_error _ -> ()
  in
  let frame_error kind message =
    let response = error_response ~id kind message in
    respond response;
    record_request ~t0 ~id
      { d_op = "-"; d_cache = "-"; d_outcome = error_kind_to_string kind }
      ~bytes_in:0 ~bytes_out:(String.length response)
  in
  let reader = Frame.reader fd in
  match Frame.read ~max_bytes:max_frame reader with
  | Ok payload -> respond (handle_payload t ~id payload)
  | Error Frame.Closed ->
      (* disconnect before/inside the request frame: no one to answer *)
      ()
  | Error Frame.Timeout -> frame_error Malformed_frame "request read timed out"
  | Error (Frame.Oversized n) ->
      frame_error Oversized
        (Printf.sprintf "frame of %d bytes exceeds the %d-byte cap" n
           max_frame)
  | Error (Frame.Malformed msg) -> frame_error Malformed_frame msg

let run ?(options = default_options) ~socket () =
  let draining = Atomic.make false in
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
      125
  | exception Sys_error msg ->
      Printf.eprintf "serve: cannot bind %s: %s\n%!" socket msg;
      125
  | lfd ->
  let state =
    create ~domains:options.domains ~max_entries:options.max_entries
      ~max_bytes:options.max_bytes ()
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
    destroy state
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  while not (Atomic.get draining) do
    (* the timeout bounds how long a drain waits for an idle listener *)
    match Unix.select [ lfd ] [] [] 0.25 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], _, _ -> ()
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
                handle_connection state ~max_frame:options.max_frame fd))
  done;
  130

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
