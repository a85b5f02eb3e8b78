(** Request-addressed result cache: a bounded LRU in front of the batch
    pipeline, so a repeated request costs one hash and one compare
    instead of JSON decoding, DAG construction, heuristic calculation
    and list scheduling.

    {b Key.}  An entry maps the raw bytes of a request frame to the raw
    bytes of its response.  A serve response is a pure function of the
    request bytes (and the daemon's domain count, fixed for its life),
    so the request bytes are the whole key: nothing is decoded to look
    one up.  The XXH64 hash of the request ({!hash}) addresses the
    table: one word-at-a-time pass over the bytes.  Collision safety is
    by construction, not by probability: every entry stores the
    {e entire} request, and a lookup compares it byte-for-byte before
    serving, so no hash collision can ever return a wrong response.  A
    same-address entry whose request differs is a miss, and the {!put}
    that follows replaces it.

    {b Bounds.}  The cache holds at most [max_entries] entries and
    [max_bytes] bytes (request + response + a fixed per-entry
    overhead); inserting past either bound evicts least-recently-used
    entries until both hold again.  An entry that alone exceeds
    [max_bytes] is rejected outright (counted in [stats.rejects], no
    eviction churn).

    {b Counters.}  Exact values live in {!stats} (always on — they are
    plain ints, the serve protocol's [stats] op reads them).  A hit is
    counted by {!find}; a miss only by {!count_miss}, because only the
    caller knows whether the request that missed was a cacheable one.
    The same events also bump the {!Ds_obs.Metrics} registry
    ([cache.hits]/[cache.misses]/[cache.evictions], plus the occupancy
    gauges [cache.bytes]/[cache.entries] maintained by deltas) when
    metrics are enabled, so [--metrics] tables and the serve daemon's
    [metrics] op see them; gated off, they cost one atomic read like
    every other instrumentation site.

    Not thread-safe: the serve daemon services requests sequentially
    (its concurrency lives inside the request, on the domain pool). *)

(** XXH64 with seed 0 over a string: the cache's address.  Matches the
    xxHash specification's published test vectors; allocates only its
    boxed result. *)
val hash : string -> int64

(** Fixed accounting overhead charged per entry on top of request and
    response bytes. *)
val entry_overhead : int

type t

(** [create ~max_entries ~max_bytes ()] — both bounds clamped to
    [>= 1].  Defaults: 4096 entries, 256 MiB.  [?hash] replaces {!hash}
    as the addressing function; tests pass a degenerate one to force
    address collisions. *)
val create :
  ?max_entries:int -> ?max_bytes:int -> ?hash:(string -> int64) -> unit -> t

val max_entries : t -> int
val max_bytes : t -> int

(** [find t request] hashes [request] once and compares it with the
    stored request at that address.  A hit moves the entry to the
    most-recently-used position, counts one hit and returns the stored
    response.  A miss counts nothing and remembers [request] and its
    hash for the {!put} that may follow. *)
val find : t -> string -> string option

(** Count one miss: the caller's request missed and was cacheable. *)
val count_miss : t -> unit

(** [put t request response] inserts at most-recently-used position,
    replacing any entry at the same address (replacement is not an
    eviction), then evicts from the least-recently-used end until both
    bounds hold.  Counts nothing toward hits/misses.  When [request] is
    the very string the last missed {!find} was given (physically
    equal), its hash is reused: a miss hashes its request once. *)
val put : t -> string -> string -> unit

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

(** [(request, response)] pairs in recency order, most recently used
    first — the exact eviction order reversed.  For tests and
    introspection. *)
val items : t -> (string * string) list

(** Structural invariants (list/table agreement, addresses, byte
    accounting, bounds): [Error] names the first violation.  Test
    hook. *)
val selfcheck : t -> (unit, string) result

(** {1 Strict checks}

    With strict checks on, every mutation path ([find] hit or miss,
    [count_miss], [put] insert/replace/evict/reject) re-runs
    {!selfcheck} and — when the metrics registry is enabled — requires
    the mirrored [cache.bytes]/[cache.entries] gauges to equal the
    recomputed totals, raising [Failure] naming the first divergence.
    O(n) per operation, so opt-in: the randomized regression harness
    turns it on, the service path never does.  The gauge comparison
    presumes one live cache with metrics enabled for its whole life
    (the gauges are process-wide).  Also armed by the
    [DAGSCHED_CACHE_STRICT] environment variable (any value but
    ["" ]/["0"]). *)

val set_strict_checks : bool -> unit
val strict_checks : unit -> bool
