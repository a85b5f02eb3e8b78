(** Scheduling as a service: a resident daemon on a Unix socket, with
    the request-addressed {!Cache} in front of the batch pipeline.

    {b Protocol.}  One request per connection: the client connects,
    sends one length-prefixed JSON frame ({!Ds_obs.Frame}), reads one
    response frame, and the connection closes.  Connections are
    serviced sequentially — a request's parallelism lives inside it, on
    the daemon's resident domain pool ({!Batch.run_on} reuse) — so N
    concurrent clients queue on the listen backlog and every response
    is deterministic.  Schemas are documented in docs/FORMAT.md
    ("serve protocol").

    Requests: [{"op": "ping"}], [{"op": "stats"}], or a schedule
    request [{"op": "schedule", "block": <asm text>, "builder": ...,
    "strategy": ..., "model": ...}] ([op] defaults to ["schedule"];
    builder/strategy/model default to the CLI defaults).  A schedule
    response carries the request's DAG fingerprint, the timing-free
    batch report and the per-block schedules.  It is a pure function of
    the request bytes and the daemon's domain count, so the cache maps
    the raw request frame to the {e entire} response text: a repeated
    frame is answered by one hash and one compare, without decoding,
    and a warm response is byte-identical to the cold response that
    populated it (pinned by the differential suite).  The same request
    spelled differently (other field order or whitespace, [\/] for [/])
    is a miss, answered with the same bytes.  Every failure — unparseable JSON, bad fields, unparseable
    assembly, an exception out of the pipeline (including the
    [DAGSCHED_SERVE_FAIL] injection knob) — answers a typed JSON error
    and leaves the daemon alive; only frame-level damage (malformed or
    oversized header, peer death) additionally drops that connection.

    {b Drain.}  SIGINT sets a flag: the in-flight request finishes and
    its response is written, the listener closes, the socket file is
    unlinked, and {!run} returns [130] for the CLI to [exit] with. *)

(** {1 Crash injection} *)

(** [DAGSCHED_SERVE_FAIL=raise:n] makes the first [n] schedule-request
    pipelines raise — the daemon must answer a typed [internal] error
    and keep serving (regression-tested in [test/test_serve_proto.ml]
    and [test/test_serve.ml]). *)
val fail_env : string

(** {1 Requests and responses (the codec is exposed for tests)} *)

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

(** Total over arbitrary JSON; typed path errors name the offending
    field (unknown [op], unknown builder/strategy/model, missing
    [block], wrong types). *)
val request_of_json :
  ?path:string list ->
  Ds_obs.Json.t ->
  (request, Ds_obs.Json.error) result

val request_to_json : request -> Ds_obs.Json.t

(** The FNV-1a offset basis — the seed of a request fingerprint. *)
val fingerprint_seed : int64

(** [fold_fingerprint h v] folds the 8 little-endian bytes of [v] into
    [h] with 64-bit FNV-1a.  A schedule response's top-level
    ["fingerprint"] is the fold of every block's
    {!Ds_dag.Dag.fingerprint}, in block order, from
    {!fingerprint_seed}. *)
val fold_fingerprint : int64 -> int64 -> int64

(** Error kinds a response can carry:
    ["parse"] (request JSON does not parse),
    ["bad-request"] (request shape/fields),
    ["block-parse"] (assembly text does not parse),
    ["oversized"] / ["malformed-frame"] (frame layer, connection drops),
    ["internal"] (pipeline exception; the daemon survives). *)
type error_kind =
  | Parse
  | Bad_request
  | Block_parse
  | Oversized
  | Malformed_frame
  | Internal

val error_kind_to_string : error_kind -> string

(** [{"status": "error", "error": {"kind": ..., "message": ..., "id":
    ...}}] as text, framed and sent as-is.  [?id] is the request id —
    every error the daemon emits carries one, for correlation with the
    access log and trace spans.  Ok responses never carry an id: a
    schedule response is the cache payload and must stay byte-identical
    across requests and daemon restarts. *)
val error_response : ?id:string -> error_kind -> string -> string

(** {1 Daemon state} *)

type t

(** [create ~domains ~max_entries ~max_bytes ?access ()] builds the
    resident state: where the pipeline runs (with [~domains:1], or
    less, the calling domain itself; with [N >= 2] a pool of [N] worker
    domains shared by every request), the result cache, the windowed
    request metrics and the request-id source (a fresh per-start nonce
    crossed with a monotonic counter).
    [?access] attaches a JSONL access-log sink — one line per request
    through {!Ds_obs.Log.Sink} (caller closes it).  Defaults: 1
    domain, cache defaults, no access log. *)
val create :
  ?domains:int ->
  ?max_entries:int ->
  ?max_bytes:int ->
  ?access:Ds_obs.Log.Sink.t ->
  unit ->
  t

(** Shut the resident pool down, if there is one (idempotent). *)
val destroy : t -> unit

val cache : t -> Cache.t

(** Requests served so far (any op, errors included). *)
val served : t -> int

(** The daemon's windowed request metrics (rate/errors/duration over
    the last 1s/10s/60s).  Records only while {!Ds_obs.Window} is
    enabled ({!run} enables it unless [options.service_obs] is off;
    in-process harnesses enable it themselves). *)
val window : t -> Ds_obs.Window.t

(** [handle_text t payload] is the full request->response path minus
    the wire: cache lookup on the payload bytes; on a miss, JSON decode,
    pipeline, encode and cache fill; then windowed metrics and the
    access-log line.  A hit counts one cache hit.  A miss counts one
    cache miss only when the payload decodes to a schedule request
    (whether it then schedules, fails to parse its block or fails
    inside the pipeline); [ping], [stats], [metrics], unparseable JSON
    and bad requests count neither.  Mints a fresh request id.  Never
    raises.  This is what the daemon runs per frame and what the
    differential tests call in-process. *)
val handle_text : t -> string -> string

(** {1 The metrics op}

    [{"op": "metrics"}] answers a full telemetry snapshot: uptime,
    resident-set size, request total, cache occupancy and limits, the
    {!Ds_obs.Metrics} registry (when enabled; empty otherwise) and
    windowed RED stats over the last {!report_windows} seconds.
    Schema in docs/FORMAT.md ("metrics op"). *)

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

(** The windows every metrics response reports, in seconds:
    [1; 10; 60]. *)
val report_windows : float list

(** Capture the snapshot an in-process harness would get from the op. *)
val metrics_of : t -> metrics

val metrics_to_json : metrics -> Ds_obs.Json.t

(** Total reader over an ok metrics {e response} object — what
    [schedtool client --metrics-text] and [schedtool top] decode. *)
val metrics_of_json :
  ?path:string list -> Ds_obs.Json.t -> (metrics, Ds_obs.Json.error) result

(** Prometheus/OpenMetrics text exposition of a snapshot
    ([dagsched_]-prefixed families; schema in docs/FORMAT.md).  Cache
    occupancy and request totals come from the exact always-on stats;
    their gated registry mirrors are dropped from the rendering rather
    than exposed twice. *)
val prometheus_of_metrics : metrics -> string

(** {1 The daemon} *)

type options = {
  domains : int;
  (** domains the pipeline runs on: 1 is the daemon's own, [N >= 2] a
      pool of [N] workers (determinism: part of reports) *)
  max_entries : int;      (** cache entry bound *)
  max_bytes : int;        (** cache byte bound *)
  max_frame : int;        (** request frame cap, bytes *)
  read_timeout_s : float; (** per-connection receive timeout *)
  backlog : int;          (** listen(2) backlog — queued clients *)
  service_obs : bool;
  (** enable {!Ds_obs.Window} so the metrics op answers live windowed
      quantiles (default [true]; [--no-service-obs] turns it off for
      overhead baselines).  Never affects response bytes. *)
  access_log : string option;
  (** JSONL access-log path (truncated at start; [None] = no access
      log).  Unopenable path: [run] returns 125. *)
}

val default_options : options

(** [run ~options ~socket ()] binds [socket] (unlinking a stale file
    first), then serves until SIGINT, then drains and returns the
    process exit code (130 after a drain; 125 if the socket cannot be
    bound, with the reason on stderr).  Installs a SIGINT handler for
    its lifetime and restores the previous one on return. *)
val run : ?options:options -> socket:string -> unit -> int

(** {1 Client} *)

(** [request_once ~socket payload] performs one whole protocol exchange
    — connect, send one frame, read one frame, close — and returns the
    response text.  [Error] carries a human-readable reason (no daemon,
    write failure, frame damage).  This is [schedtool client], the
    bench load generator and the over-the-wire tests. *)
val request_once :
  ?max_frame:int -> socket:string -> string -> (string, string) result
