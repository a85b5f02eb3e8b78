(** Fixed-size domain pool that runs one chunked map at a time.

    A map splits its items into chunks, posts one job (the chunk
    function, the chunk count and a shared counter) and wakes the
    workers.  Each worker takes chunks with one [Atomic.fetch_and_add]
    on the counter until none are left; the caller waits until every
    worker has left the job.  The k-th take runs chunk [n_chunks - 1 - k],
    so a one-worker pool runs a map's chunks last-first, in the same
    order on every run.  Chunks run on the workers only, never on the
    calling domain, and the worker that finishes a map's last chunk
    builds its result list.

    Results come back in input order whichever domain computed what.
    When [f] raises, the rest of that chunk is skipped, every other
    chunk still runs, and the failure of the lowest-numbered chunk is
    re-raised (with its backtrace) on the calling domain — so the
    propagated exception is the first in input order, not the first to
    fire.  The pool stays usable afterwards.

    Not reentrant: one map at a time per pool.

    When {!Ds_obs.Trace} is enabled at the map's start, each chunk
    records a [queue_wait] span (the map's start to the chunk's start)
    and a [task_run] span (the chunk's run, also on exception); the
    number of [task_run] spans is the number of chunks. *)

type t

(** The most worker domains one pool may have: OCaml 5.1 runs at most
    128 domains, the calling one included. *)
val max_domains : int

(** [Domain.recommended_domain_count], between 1 and {!max_domains}. *)
val recommended : unit -> int

(** The chunk size the batch driver maps with (only [Batch.run ~chunk]
    overrides it): 64 blocks per chunk keeps dispatch bookkeeping
    (counter takes, queue_wait spans) two orders of magnitude below
    per-block dispatch while still splitting real corpora into enough
    chunks to balance across domains. *)
val default_chunk : int

(** [create ?domains ()] spawns the workers ([domains] defaults to
    {!recommended}; values < 1 are clamped to 1).  Raises
    [Invalid_argument], before spawning any, for more than
    {!max_domains}.  Call {!shutdown} when done. *)
val create : ?domains:int -> unit -> t

(** Stop and join the workers.  Idempotent. *)
val shutdown : t -> unit

(** [map_on pool ?chunk f xs] is [List.map f xs] on an existing pool,
    [chunk] items (default 1) per chunk.  The pool stays usable
    afterwards, so a sequence of maps (one batch per daemon request,
    say) reuses the same worker domains.  Raises [Invalid_argument]
    after {!shutdown}. *)
val map_on : t -> ?chunk:int -> ('a -> 'b) -> 'a list -> 'b list

(** [map ?domains ?chunk f xs] is {!map_on} on a fresh pool, which is
    always shut down, even when [f] raises. *)
val map : ?domains:int -> ?chunk:int -> ('a -> 'b) -> 'a list -> 'b list
