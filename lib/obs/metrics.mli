(** Process-wide metrics registry: named counters and log-bucketed
    histograms for the scheduling pipeline's hot paths (arcs added,
    transitive arcs pruned, resource-table probes, ready-list lengths,
    stall cycles, pool steals).  Phase durations are {!Trace} spans,
    not histograms.

    Instrumentation sites register a handle once at module
    initialization ([let arcs = Metrics.counter "dag.arcs_added"]) and
    bump it on the hot path ({!incr}/{!add}/{!observe}).  Updates are a
    single [Atomic] read when disabled; when enabled they are plain
    loads/stores on a {e domain-local} cell (one cell per domain per
    handle, via [Domain.DLS]) — no shared atomics, no contended cache
    lines — and {!snapshot} sums the cells.  Safe from any domain;
    never a measurable cost in the disabled (default) state, and never
    observable in report bytes.  A snapshot taken while other domains
    are actively recording is approximate (their latest plain writes
    may not be visible yet); it is exact whenever the recording domains
    have quiesced — e.g. after the pool has joined, which is where
    every snapshot in this tree happens.

    Enabled state, like {!Trace}'s, is per process: [schedtool] enables
    it when [--metrics] is given. *)

val enable : unit -> unit
val disable : unit -> unit
val is_enabled : unit -> bool

(** Zero every registered counter and histogram (handles stay valid). *)
val reset : unit -> unit

(** {1 Counters} *)

type counter

(** [counter name] returns the process-wide counter registered under
    [name], creating it on first use.  Conventional names are
    dot-namespaced ("dag.arcs_added"). *)
val counter : string -> counter

(** No-op when disabled. *)
val add : counter -> int -> unit

val incr : counter -> unit

(** Current summed value of a counter's cells.  Like {!snapshot}, exact
    once recording domains have quiesced; approximate while they are
    live.  Works whether or not recording is enabled (reads, never
    writes). *)
val value : counter -> int

(** {1 Histograms}

    Log-bucketed: bucket 0 counts values [<= 0], bucket [i >= 1] counts
    values in [[2^(i-1), 2^i - 1]].  Sums clamp negative observations to
    0.  Good enough for latency and length distributions at almost no
    cost; exact quantiles are out of scope. *)

type histogram

val histogram : string -> histogram

(** Record one integer observation.  No-op when disabled. *)
val observe : histogram -> int -> unit

(** {1 Snapshots} *)

type hist_snapshot = {
  name : string;
  count : int;
  sum : int;
  buckets : (int * int) list;  (** (inclusive upper bound, count) *)
}

(** Name-sorted, with zero counters and empty histograms dropped — so
    equal workloads produce equal snapshots regardless of registration
    order. *)
type snapshot = {
  counters : (string * int) list;
  histograms : hist_snapshot list;
}

val snapshot : unit -> snapshot

(** {1 Quantile summaries}

    Estimated from the log buckets: a quantile is the inclusive upper
    bound of the bucket where the cumulative count reaches the rank —
    an upper estimate that is exact to within one power of two, which
    is all the bucketing ever promised. *)

(** [quantile h q] for [q] in [[0, 1]] (clamped); [0] on an empty
    histogram. *)
val quantile : hist_snapshot -> float -> int

type hist_summary = {
  name : string;
  count : int;
  sum : int;
  mean : float;
  p50 : int;
  p95 : int;
  p99 : int;
}

(** One summary per histogram, in the snapshot's (name-sorted) order —
    the data behind the [--metrics] stderr table. *)
val summary : snapshot -> hist_summary list

(** Schema in docs/FORMAT.md ("metrics"); [bench obs] writes it into
    [BENCH_obs.json]. *)
val snapshot_to_json : snapshot -> Json.t
