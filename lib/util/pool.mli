(** Fixed-size domain work pool over per-domain work-stealing deques.

    Each worker domain owns a deque.  Submitted tasks are spread
    round-robin across the deques; an idle worker pops its own deque
    LIFO (newest first — the freshly pushed task is the cache-warm one)
    and, finding it empty, steals FIFO (oldest first) from the other
    deques in one randomly rotated sweep.  Workers park on a shared
    [Mutex]/[Condition] pair only when every deque is empty, so the
    central lock is touched per submit and per park/unpark, never per
    take — the old single-queue pool paid it per task.

    [map]/[map_array] are the common entry points: they fan a function
    out over the items in chunks and return the results in input order,
    regardless of which domain computed what.  A task that raises does
    not hang the pool: the failure with the {e lowest submission
    sequence number} is captured and re-raised (with its backtrace)
    from [wait] on the submitting domain, after the queue drains — so
    the propagated exception is deterministic in input order, not in
    racy completion or steal order. *)

(** The work-stealing deque itself, exposed for the randomized property
    suite (test/test_pool_props.ml).  All operations are thread-safe
    (one private lock per deque); the order contract is: {!pop} (the
    owner side) returns newest-first (LIFO), {!steal} (the thief side)
    returns oldest-first (FIFO), and the two drain from opposite ends
    of the same sequence. *)
module Deque : sig
  type 'a t

  (** [create ?capacity ()] is an empty deque.  [capacity] (default 64,
      rounded up to a power of two) only sizes the initial ring; the
      deque grows without bound. *)
  val create : ?capacity:int -> unit -> 'a t

  (** Add to the owner end. *)
  val push : 'a t -> 'a -> unit

  (** Remove from the owner end: the {e newest} element, or [None] when
      empty. *)
  val pop : 'a t -> 'a option

  (** Remove from the thief end: the {e oldest} element, or [None] when
      empty. *)
  val steal : 'a t -> 'a option

  val length : 'a t -> int
  val is_empty : 'a t -> bool
end

type t

(** [Domain.recommended_domain_count], at least 1. *)
val recommended : unit -> int

(** The chunk size the batch driver submits with (only [Batch.run
    ~chunk] overrides it): 64 blocks per task keeps task-dispatch
    bookkeeping (deque traffic, queue_wait spans) two orders of
    magnitude below per-block submission while still splitting real
    corpora into enough tasks to balance across domains. *)
val default_chunk : int

(** [create ?domains ()] spawns the workers ([domains] defaults to
    {!recommended}; values < 1 are clamped to 1).  Call {!shutdown} when
    done. *)
val create : ?domains:int -> unit -> t

(** Number of worker domains. *)
val size : t -> int

(** Enqueue a task.  Raises [Invalid_argument] after {!shutdown}.

    When {!Ds_obs.Trace} is enabled at submit time, the task is wrapped
    to record a [queue_wait] span (submit to start) and a [task_run]
    span (start to finish, also on exception); when disabled the wrap
    is skipped entirely (one atomic read per task).  With chunked
    submission a task covers a whole chunk, so these are per-chunk,
    and the number of [task_run] spans is the number of chunks. *)
val submit : t -> (unit -> unit) -> unit

(** Block until every submitted task has finished.  If any task raised,
    the failure with the lowest submission sequence number is re-raised
    here (and cleared, so the pool remains usable). *)
val wait : t -> unit

(** Drain the deques, stop and join the workers.  Idempotent. *)
val shutdown : t -> unit

(** [map_array_on pool f arr] computes [Array.map f arr] on an existing
    pool, [chunk] items (default 1) per queued task, preserving input
    order.  The pool stays usable afterwards, so a sequence of maps (one
    batch per daemon request, say) reuses the same worker domains
    instead of paying domain spawn/join per call.  The batch driver
    passes [~chunk:default_chunk] unless told otherwise.

    Not reentrant: one map at a time per pool — it uses {!wait}, which
    blocks until the pool's {e whole} queue drains.

    Exception ordering under [~chunk]: when [f] raises mid-chunk, the
    remaining items of that chunk are skipped and their result slots are
    never written.  That is safe — and the internal [assert false] on an
    unwritten slot unreachable — only because {!wait} re-raises the
    captured exception {e before} any slot is read.  Chunks are
    numbered in input order, so with several raising chunks the one
    holding the lowest-index raising element wins deterministically,
    even when the chunks ran on different domains via steals.  A
    regression test (test_util.ml "pool chunk exception ordering")
    pins the raise-before-read ordering and input-order determinism. *)
val map_array_on : t -> ?chunk:int -> ('a -> 'b) -> 'a array -> 'b array

(** List analogue of {!map_array_on}. *)
val map_on : t -> ?chunk:int -> ('a -> 'b) -> 'a list -> 'b list

(** [map_array ?domains ?chunk f arr] is {!map_array_on} on a fresh
    pool.  The pool is always shut down, even when [f] raises. *)
val map_array : ?domains:int -> ?chunk:int -> ('a -> 'b) -> 'a array -> 'b array

(** List analogue of {!map_array}. *)
val map : ?domains:int -> ?chunk:int -> ('a -> 'b) -> 'a list -> 'b list
