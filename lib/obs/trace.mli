(** Span recorder: phase-level wall-clock and allocation tracing for the
    batch pipeline and the serve daemon, serialized as Chrome
    trace-event JSON (loadable in Perfetto or [chrome://tracing]).

    A {e span} is one timed region — [parse], [dag_build],
    [heur_static], [heur_dynamic], [schedule], [verify], [score],
    [fingerprint], [json_encode], the pool's [queue_wait]/[task_run] —
    with a category, Chrome [pid]/[tid] lane coordinates, free-form
    [args] and the minor-heap words the recording domain allocated
    inside it.  The counts that explain a phase's cost (table probes,
    alias entries scanned, candidates examined) ride on its span as
    integer args, added through {!count}.  In this tree [pid] is a lane: 0 for the process's own
    spans, the block id for [schedtool explain --timeline]'s per-block
    issue lanes; [tid] is the OCaml domain id, so a trace shows one
    thread lane per domain.

    Recording is disabled by default and costs one atomic read per
    {!with_span} when disabled — reports stay byte-identical.  When
    enabled ([schedtool --trace]), spans accumulate in per-domain
    lock-free buffers (each domain CASes onto its own slot; no shared
    mutex on the record path) that {!snapshot} merges into one
    deterministic order.

    Timestamps come from {!Clock} and are {e absolute} epoch
    microseconds: trace viewers normalize to the earliest event. *)

type span = {
  name : string;            (** phase label, e.g. ["dag_build"] *)
  cat : string;             (** category, e.g. ["pipeline"], ["pool"] *)
  ts_us : float;            (** start, absolute epoch microseconds *)
  dur_us : float;           (** duration in microseconds, [>= 0] *)
  minor_words : int;        (** minor-heap words allocated inside the span *)
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
    the timeline) charged with the [Gc.minor_words] the calling domain
    allocated inside [f].  When disabled this is just [f ()]. *)
val with_span :
  ?cat:string -> ?args:(string * Json.t) list -> string -> (unit -> 'a) -> 'a

(** [count name n] adds [n] to the count [name] of the innermost
    {!with_span} open on the calling domain; that span appends its
    counts to its [args] as integers when it exits, in first-count
    order.  Does nothing when recording is disabled or no span is open
    on this domain.  Costs one atomic read when disabled. *)
val count : string -> int -> unit

(** Low-level recording for sites that already hold both endpoints
    (pool queue waits, the engine's aggregate pick span).
    [start_s]/[stop_s] are {!Clock.now} values; the duration is clamped
    non-negative and no minor words are charged.  The span lands with
    [pid = 0] and the calling domain's [tid].  Not gated on {!enabled}
    — call sites guard. *)
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

(** {1 Chrome trace-event JSON}

    Schema in docs/FORMAT.md ("trace").  {!to_json} wraps the spans as
    [{"traceEvents": [...]}] with one complete ("ph":"X") event per
    span, its minor words as a ["minor_words"] arg (omitted when 0),
    prefixing a
    ["process_name"] metadata event for each pid named in [pid_names]
    that actually appears.  {!events_of_json} is total over arbitrary
    JSON, skips events of other phases, and round trips {!to_json}
    exactly. *)

val span_to_json : span -> Json.t

val to_json : ?pid_names:(int * string) list -> span list -> Json.t

val events_of_json :
  ?path:string list -> Json.t -> (span list, Json.error) result

(** {1 Per-phase aggregation} *)

type phase_stat = {
  phase : string;
  spans : int;
  total_us : float;
  max_us : float;
  minor_words : int;        (** summed over the phase's spans *)
}

(** Aggregate spans by name, sorted by descending total duration (ties
    by name) — the data behind the [--trace] stderr phases table. *)
val summary : span list -> phase_stat list

(** The process's GC counters for the [--trace] totals line.  A minor
    collection first makes every domain publish its counts, so major
    words include those a domain allocated directly on the major heap
    since its last minor collection, which [Gc.quick_stat] alone misses
    on OCaml 5.1. *)
val gc_totals : unit -> Gc.stat
