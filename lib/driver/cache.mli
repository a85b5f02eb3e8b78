(** Content-addressed schedule-result cache: a bounded LRU in front of
    the batch pipeline, so repeated traffic (millions of users
    submitting overlapping code) costs a hash plus a lookup instead of
    DAG construction, heuristic calculation and list scheduling.

    {b Key.}  A cached result is identified by the full tuple
    (block text hash, {!Ds_dag.Dag.fingerprint}, builder, strategy,
    machine model).  The text hash (64-bit FNV-1a over the request's
    assembly text) addresses the table; the DAG fingerprint — computed
    once, on the miss that populated the entry — pins the cached
    schedule to the exact dependence structure it was computed from.
    Collision safety is by construction, not by probability: every
    entry stores the {e entire} block text, and a lookup compares it
    (plus builder/strategy/model) byte-for-byte before serving, so no
    hash or fingerprint collision of any kind can ever return a wrong
    schedule.

    {b Bounds.}  The cache holds at most [max_entries] entries and
    [max_bytes] payload bytes (text + payload + a fixed per-entry
    overhead); inserting past either bound evicts least-recently-used
    entries until both hold again.  An entry that alone exceeds
    [max_bytes] is rejected outright (counted in [stats.rejects], no
    eviction churn).

    {b Counters.}  Exact values live in {!stats} (always on — they are
    plain ints, the serve protocol's [stats] op reads them).  The same
    events also bump the {!Ds_obs.Metrics} registry
    ([cache.hits]/[cache.misses]/[cache.evictions], plus the occupancy
    gauges [cache.bytes]/[cache.entries] maintained by deltas) when
    metrics are enabled, so [--metrics] tables and the serve daemon's
    [metrics] op see them; gated off, they cost one atomic read like
    every other instrumentation site.

    Not thread-safe: the serve daemon services requests sequentially
    (its concurrency lives inside the request, on the domain pool). *)

(** The pipeline-configuration part of the key, as canonical names
    (exactly the [schedtool] CLI spellings). *)
type config = { builder : string; strategy : string; model : string }

type key = {
  text_hash : int64;   (** FNV-1a over the block text *)
  fingerprint : int64; (** {!Ds_dag.Dag.fingerprint}, folded over blocks *)
  config : config;
}

(** 64-bit FNV-1a over a string — the text-hash half of the key. *)
val hash_text : string -> int64

(** The FNV-1a offset basis — the seed for incremental hashing. *)
val hash_seed : int64

(** [hash_fold_int64 h v] folds the 8 little-endian bytes of [v] into
    [h] — how serve combines per-block {!Ds_dag.Dag.fingerprint}s into
    one request-level fingerprint. *)
val hash_fold_int64 : int64 -> int64 -> int64

(** Fixed accounting overhead charged per entry on top of text and
    payload bytes. *)
val entry_overhead : int

type t

(** [create ~max_entries ~max_bytes ()] — both bounds clamped to
    [>= 1].  Defaults: 4096 entries, 256 MiB. *)
val create : ?max_entries:int -> ?max_bytes:int -> unit -> t

val max_entries : t -> int
val max_bytes : t -> int

type hit = { key : key; payload : string }

(** [find t ~text config] — a hit moves the entry to most-recently-used
    position and returns the stored key (including the fingerprint
    recorded at insert) and payload.  Compares the stored full text and
    config before serving.  Counts exactly one hit or one miss. *)
val find : t -> text:string -> config -> hit option

(** [put t ~text ~fingerprint config payload] inserts (or replaces —
    replacement is not an eviction) at most-recently-used position,
    then evicts from the least-recently-used end until both bounds
    hold.  Counts nothing toward hits/misses.  When [text] is the very
    string the last missed {!find} was given (physically equal), its
    hash is reused: a miss hashes its text once. *)
val put : t -> text:string -> fingerprint:int64 -> config -> payload:string -> unit

(** Exact, always-on counters.  [bytes]/[entries] are current
    occupancy; the rest are monotone totals. *)
type stats = {
  entries : int;
  bytes : int;
  hits : int;
  misses : int;
  evictions : int;
  rejects : int;
}

val stats : t -> stats

(** Entries in recency order, most recently used first — the exact
    eviction order reversed.  For tests and introspection. *)
val items : t -> (key * string) list

(** Structural invariants (list/table agreement, byte accounting,
    bounds): [Error] names the first violation.  Test hook. *)
val selfcheck : t -> (unit, string) result

(** {1 Strict checks}

    With strict checks on, every mutation path ([find] hit or miss,
    [put] insert/replace/evict/reject) re-runs {!selfcheck} and — when
    the metrics registry is enabled — requires the mirrored
    [cache.bytes]/[cache.entries] gauges to equal the recomputed
    totals, raising [Failure] naming the first divergence.  O(n) per
    operation, so opt-in: the randomized regression harness turns it
    on, the service path never does.  The gauge comparison presumes
    one live cache with metrics enabled for its whole life (the
    gauges are process-wide).  Also armed by the
    [DAGSCHED_CACHE_STRICT] environment variable (any value but
    ["" ]/["0"]). *)

val set_strict_checks : bool -> unit
val strict_checks : unit -> bool
