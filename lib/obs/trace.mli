(** Span recorder: phase-level wall-clock tracing for the batch
    pipeline and the serve daemon, serialized as Chrome trace-event
    JSON (loadable in Perfetto or [chrome://tracing]).

    A {e span} is one timed region — [parse], [dag_build],
    [heur_static], [heur_dynamic], [schedule], [verify], [json_encode],
    the pool's [queue_wait]/[task_run] — with a category, Chrome
    [pid]/[tid] lane coordinates and free-form [args].  In this tree
    [pid] is a lane: 0 for the process's own spans, the block id for
    [schedtool explain --timeline]'s per-block issue lanes; [tid] is
    the OCaml domain id, so a trace shows one thread lane per domain.

    Recording is disabled by default and costs one atomic read per
    {!with_span} when disabled — reports stay byte-identical.  When
    enabled ([schedtool --trace]), spans accumulate in per-domain
    lock-free buffers (each domain CASes onto its own slot; no shared
    mutex on the record path) that {!snapshot} merges into one
    deterministic order.

    Besides spans the recorder holds {e counter events} ("ph":"C") —
    cumulative gauges such as heap words and GC collection counts,
    recorded by {!Resource} at phase boundaries — which Perfetto
    renders as counter tracks alongside the spans.

    Timestamps come from {!Clock} and are {e absolute} epoch
    microseconds: trace viewers normalize to the earliest event. *)

type span = {
  name : string;            (** phase label, e.g. ["dag_build"] *)
  cat : string;             (** category, e.g. ["pipeline"], ["pool"] *)
  ts_us : float;            (** start, absolute epoch microseconds *)
  dur_us : float;           (** duration in microseconds, [>= 0] *)
  pid : int;                (** lane: 0 = this process *)
  tid : int;                (** OCaml domain id *)
  args : (string * Json.t) list;
}

val enable : unit -> unit
val disable : unit -> unit
val enabled : unit -> bool

(** Drop every recorded span (the enabled state is unchanged). *)
val reset : unit -> unit

(** [with_span name f] runs [f ()]; when enabled, records a span from
    entry to exit (also on exception, so aborted phases still appear on
    the timeline).  When disabled this is just [f ()]. *)
val with_span :
  ?cat:string -> ?args:(string * Json.t) list -> string -> (unit -> 'a) -> 'a

(** Low-level recording for sites that already hold both endpoints
    (pool queue waits).  [start_s]/[stop_s] are
    {!Clock.now} values; the duration is clamped non-negative.  The span
    lands with [pid = 0] and the calling domain's [tid].  Not gated on
    {!enabled} — call sites guard. *)
val record :
  ?cat:string ->
  ?args:(string * Json.t) list ->
  name:string ->
  start_s:float ->
  stop_s:float ->
  unit ->
  unit

(** All recorded spans in a deterministic chronological order
    (timestamp, then pid/tid/duration/name, full content as the final
    tiebreak). *)
val snapshot : unit -> span list

(** {1 Counter events}

    A counter event samples one or more named series at a point in
    time; Chrome/Perfetto draw each [cname] as a counter track with one
    line per series.  Recorded at phase boundaries by {!Resource}
    (heap words, GC collections). *)

type counter = {
  cname : string;                  (** track name, e.g. ["heap"] *)
  cts_us : float;                  (** absolute epoch microseconds *)
  cpid : int;                      (** lane, like spans *)
  ctid : int;                      (** OCaml domain id *)
  values : (string * float) list;  (** series sampled at this instant *)
}

(** Record a counter sample at [Clock.now] from the calling domain.
    Not gated on {!enabled} — call sites guard, like {!record}. *)
val record_counter : name:string -> values:(string * float) list -> unit -> unit

(** Deterministic order (timestamp, pid/tid/name, content). *)
val snapshot_counters : unit -> counter list

(** {1 Chrome trace-event JSON}

    Schema in docs/FORMAT.md ("trace").  {!to_json} wraps the spans as
    [{"traceEvents": [...]}] with one complete ("ph":"X") event per
    span and one "ph":"C" event per counter sample, prefixing a
    ["process_name"] metadata event for each pid named in [pid_names]
    that actually appears (in spans or counters).  {!events_of_json} /
    {!counters_of_json} are total over arbitrary JSON, skip events of
    other phases, and round trip {!to_json} exactly on their
    respective lists. *)

val span_to_json : span -> Json.t

val to_json :
  ?pid_names:(int * string) list -> ?counters:counter list -> span list ->
  Json.t

val events_of_json :
  ?path:string list -> Json.t -> (span list, Json.error) result

val counters_of_json :
  ?path:string list -> Json.t -> (counter list, Json.error) result

(** {1 Per-phase aggregation} *)

type phase_stat = {
  phase : string;
  spans : int;
  total_us : float;
  max_us : float;
}

(** Aggregate spans by name, sorted by descending total duration (ties
    by name) — the data behind the [--trace]/[--metrics] stderr
    summary table. *)
val summary : span list -> phase_stat list
