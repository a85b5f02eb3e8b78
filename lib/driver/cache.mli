(** Request-addressed result cache: a bounded cache with SIEVE eviction
    in front of the batch pipeline, so a repeated request costs one
    hash, one compare and one bit set instead of JSON decoding, DAG
    construction, heuristic calculation and list scheduling.

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

    {b Eviction.}  SIEVE (Zhang et al., NSDI '24): entries sit in one
    queue in insertion order, newest at the head, and each carries a
    [visited] bit that a hit sets.  Entries never move.  To evict, a
    hand moves from where it last stopped (at first the tail) toward
    the head, wrapping to the tail after the head; it clears each
    visited bit it passes and evicts the first unvisited entry.  When a
    replacement or eviction removes the entry under the hand, the hand
    moves to that entry's newer neighbour.  On skewed traffic this
    keeps popular entries that LRU would push out behind one-off
    requests.

    {b Bounds.}  The cache holds at most [max_entries] entries and
    [max_bytes] bytes (request + response + a fixed per-entry
    overhead); inserting past either bound moves the hand, which evicts
    until both hold again.  The hand passes over the entry being
    inserted, so a put never evicts its own entry.  An entry that alone
    exceeds [max_bytes] is rejected outright (counted in
    [stats.rejects], no eviction churn).

    {b Counters.}  Exact values live in {!stats} (always on — they are
    plain ints, the serve protocol's [stats] op reads them).  A hit is
    counted by {!find}; a miss only by {!count_miss}, because only the
    caller knows whether the request that missed was a cacheable one.

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
    stored request at that address.  A hit sets the entry's visited
    bit, counts one hit and returns the stored response; nothing
    moves.  A miss counts nothing and remembers [request] and its
    hash for the {!put} that may follow. *)
val find : t -> string -> string option

(** Count one miss: the caller's request missed and was cacheable. *)
val count_miss : t -> unit

(** [put t request response] removes any entry at the same address
    (replacement is not an eviction), inserts the new one at the head,
    unvisited, then evicts with the SIEVE hand until both bounds hold.  Counts nothing toward hits/misses.  When [request] is
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

(** [(request, response)] pairs in queue order, newest first.  This is
    insertion order, not the eviction order: that also depends on the
    visited bits and the hand.  For tests and introspection. *)
val items : t -> (string * string) list

(** Structural invariants (queue/table agreement, addresses, byte
    accounting, bounds, the hand on a queued entry or [None]): [Error]
    names the first violation.  Test hook. *)
val selfcheck : t -> (unit, string) result

(** {1 Strict checks}

    With strict checks on, every mutation path ([find] hit or miss,
    [count_miss], [put] insert/replace/evict/reject) re-runs
    {!selfcheck}, raising [Failure] naming the first violation.  O(n)
    per operation, so opt-in: the randomized regression harness turns
    it on, the service path never does.  Also armed by the
    [DAGSCHED_CACHE_STRICT] environment variable (any value but
    ["" ]/["0"]). *)

val set_strict_checks : bool -> unit
val strict_checks : unit -> bool
