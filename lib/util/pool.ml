(** Fixed-size domain work pool over per-domain work-stealing deques:
    the owner pops LIFO, thieves steal FIFO from a random victim, and
    workers park on a Mutex/Condition pair only when every deque is
    empty.  Results keep input order and exception propagation is
    deterministic (first raise in submission order).  See pool.mli for
    the contract. *)

(* ------------------------------------------------------------------ *)
(* the deque: a lock-guarded growable ring.  One lock per deque is the
   whole point — takes contend on their own deque (owner) or a random
   victim (thief), never on one central queue lock.  [head] and [tail]
   are absolute positions; the slot of position [p] is
   [p land (capacity - 1)] with capacity a power of two. *)

module Deque = struct
  type 'a t = {
    lock : Mutex.t;
    mutable buf : 'a option array;
    mutable head : int;            (* oldest element: the steal side *)
    mutable tail : int;            (* one past newest: the push side *)
  }

  let round_up_pow2 n =
    let rec go c = if c >= n then c else go (c * 2) in
    go 1

  let create ?(capacity = 64) () =
    { lock = Mutex.create ();
      buf = Array.make (round_up_pow2 (max 1 capacity)) None;
      head = 0; tail = 0 }

  let grow d =
    let old = d.buf in
    let old_mask = Array.length old - 1 in
    let buf = Array.make (2 * Array.length old) None in
    let mask = Array.length buf - 1 in
    for p = d.head to d.tail - 1 do
      buf.(p land mask) <- old.(p land old_mask)
    done;
    d.buf <- buf

  let push d x =
    Mutex.lock d.lock;
    if d.tail - d.head = Array.length d.buf then grow d;
    d.buf.(d.tail land (Array.length d.buf - 1)) <- Some x;
    d.tail <- d.tail + 1;
    Mutex.unlock d.lock

  (* owner side: newest first *)
  let pop d =
    Mutex.lock d.lock;
    let r =
      if d.tail = d.head then None
      else begin
        d.tail <- d.tail - 1;
        let i = d.tail land (Array.length d.buf - 1) in
        let x = d.buf.(i) in
        d.buf.(i) <- None;
        x
      end
    in
    Mutex.unlock d.lock;
    r

  (* thief side: oldest first *)
  let steal d =
    Mutex.lock d.lock;
    let r =
      if d.tail = d.head then None
      else begin
        let i = d.head land (Array.length d.buf - 1) in
        let x = d.buf.(i) in
        d.buf.(i) <- None;
        d.head <- d.head + 1;
        x
      end
    in
    Mutex.unlock d.lock;
    r

  let length d =
    Mutex.lock d.lock;
    let n = d.tail - d.head in
    Mutex.unlock d.lock;
    n

  let is_empty d = length d = 0
end

(* ------------------------------------------------------------------ *)
(* the pool *)

(* [seq] is the submission sequence number: when several tasks raise in
   one wait window, the one with the smallest [seq] wins, which makes
   exception propagation deterministic in input order rather than in
   (racy) completion or steal order. *)
type task = { seq : int; run : unit -> unit }

type t = {
  mutex : Mutex.t;               (* pending/stop/failure/submit cursor *)
  has_work : Condition.t;        (* some deque non-empty, or stopping *)
  all_done : Condition.t;        (* pending dropped to zero *)
  deques : task Deque.t array;   (* one per worker domain *)
  available : int Atomic.t;      (* queued (pushed - taken) tasks *)
  mutable next_victim : int;     (* round-robin submission cursor *)
  mutable next_seq : int;
  mutable pending : int;         (* queued + currently running tasks *)
  mutable stop : bool;
  mutable failure : (int * exn * Printexc.raw_backtrace) option;
  mutable workers : unit Domain.t array;
}

let recommended () = max 1 (Domain.recommended_domain_count ())

let default_chunk = 64

(* Observability: when tracing is enabled, each submitted task is
   wrapped so the timeline shows how long it sat queued in a deque
   (queue_wait) and how long a worker ran it (task_run).  The wrap
   happens at submit time, so the disabled path costs one atomic read
   per task and nothing per instruction.  With chunked submission one
   task covers a whole chunk, so these are per-chunk, not per-block. *)
let instrument task =
  if not (Ds_obs.Trace.enabled ()) then task
  else
    let enqueued = Ds_obs.Clock.now () in
    fun () ->
      Ds_obs.Trace.record ~cat:"pool" ~name:"queue_wait" ~start_s:enqueued
        ~stop_s:(Ds_obs.Clock.now ()) ();
      (* with_span records even when the task raises: a failing task
         still shows on the timeline (the pool re-raises from [wait]
         regardless) *)
      Ds_obs.Trace.with_span ~cat:"pool" "task_run" task

(* Take order: own deque first (LIFO), then one sweep over the other
   deques as a thief (FIFO), starting at a random victim so thieves
   don't convoy on the same deque.  The Prng only drives victim choice,
   never results, so worker-local streams cannot break determinism. *)
let try_take pool me rng =
  match Deque.pop pool.deques.(me) with
  | Some _ as r -> r
  | None ->
      let n = Array.length pool.deques in
      if n = 1 then None
      else begin
        (* one random rotation through every other deque: [start + k]
           mod (n-1) visits each victim exactly once per sweep *)
        let start = Prng.int rng (n - 1) in
        let rec sweep k =
          if k >= n - 1 then None
          else
            let v = (me + 1 + ((start + k) mod (n - 1))) mod n in
            match Deque.steal pool.deques.(v) with
            | Some _ as r -> r
            | None -> sweep (k + 1)
        in
        sweep 0
      end

(* Workers exit only once stopping AND every deque is drained, so a
   shutdown never abandons submitted work.  [available] tracks queued
   tasks: a worker parks only when it is zero, and the submit path
   bumps it and signals under the pool mutex, so the park check cannot
   miss a wakeup. *)
let rec worker_loop pool me rng =
  match try_take pool me rng with
  | Some { seq; run } ->
      Atomic.decr pool.available;
      let outcome =
        try run (); None
        with exn -> Some (exn, Printexc.get_raw_backtrace ())
      in
      Mutex.lock pool.mutex;
      (match outcome with
      | Some (exn, bt) -> (
          match pool.failure with
          | Some (s, _, _) when s <= seq -> ()
          | _ -> pool.failure <- Some (seq, exn, bt))
      | None -> ());
      pool.pending <- pool.pending - 1;
      if pool.pending = 0 then Condition.broadcast pool.all_done;
      Mutex.unlock pool.mutex;
      worker_loop pool me rng
  | None ->
      (* [available] can exceed the visible queue for an instant (a
         taker decrements after removal), so an empty sweep with work
         still advertised just retries *)
      Mutex.lock pool.mutex;
      while Atomic.get pool.available <= 0 && not pool.stop do
        Condition.wait pool.has_work pool.mutex
      done;
      let continue_ = Atomic.get pool.available > 0 || not pool.stop in
      Mutex.unlock pool.mutex;
      if continue_ then begin
        Domain.cpu_relax ();
        worker_loop pool me rng
      end

let create ?domains () =
  let n = match domains with Some d -> max 1 d | None -> recommended () in
  let pool =
    { mutex = Mutex.create (); has_work = Condition.create ();
      all_done = Condition.create ();
      deques = Array.init n (fun _ -> Deque.create ());
      available = Atomic.make 0; next_victim = 0; next_seq = 0; pending = 0;
      stop = false; failure = None; workers = [||] }
  in
  pool.workers <-
    Array.init n (fun i ->
        (* worker-local victim stream; seeds fixed so pool behaviour is
           reproducible for a given interleaving *)
        let rng = Prng.create (0x9e3779b9 + i) in
        Domain.spawn (fun () -> worker_loop pool i rng));
  pool

let size pool = Array.length pool.workers

(* Queue [tasks] under one hold of the pool mutex.  A parked worker
   needs that mutex to wake, so it cannot start on the first task while
   later ones are still being pushed: an idle one-worker pool runs a
   map's chunks in one fixed (LIFO) order, and so grows its per-domain
   scratch, and allocates, the same way on every run. *)
let submit_all pool tasks =
  let tasks = List.map instrument tasks in
  Mutex.lock pool.mutex;
  if pool.stop then begin
    Mutex.unlock pool.mutex;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  List.iter
    (fun task ->
      let seq = pool.next_seq in
      pool.next_seq <- seq + 1;
      pool.pending <- pool.pending + 1;
      let v = pool.next_victim in
      pool.next_victim <- (v + 1) mod Array.length pool.deques;
      (* deque lock nests inside the pool mutex on this path only;
         workers take deque locks without the pool mutex, so there is
         no cycle *)
      Deque.push pool.deques.(v) { seq; run = task };
      Atomic.incr pool.available;
      Condition.signal pool.has_work)
    tasks;
  Mutex.unlock pool.mutex

let submit pool task = submit_all pool [ task ]

let wait pool =
  Mutex.lock pool.mutex;
  while pool.pending > 0 do
    Condition.wait pool.all_done pool.mutex
  done;
  let failure = pool.failure in
  pool.failure <- None;
  Mutex.unlock pool.mutex;
  match failure with
  | Some (_, exn, bt) -> Printexc.raise_with_backtrace exn bt
  | None -> ()

let shutdown pool =
  Mutex.lock pool.mutex;
  pool.stop <- true;
  Condition.broadcast pool.has_work;
  Mutex.unlock pool.mutex;
  Array.iter Domain.join pool.workers;
  pool.workers <- [||]

let map_array_on pool ?chunk f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else begin
    let chunk = match chunk with Some c -> max 1 c | None -> 1 in
    (* index-addressed result slots make the output order independent of
       scheduling; the mutex in [wait] publishes the workers' writes *)
    let out = Array.make n None in
    let n_chunks = (n + chunk - 1) / chunk in
    submit_all pool
      (List.init n_chunks (fun c () ->
           for j = c * chunk to min n ((c + 1) * chunk) - 1 do
             out.(j) <- Some (f arr.(j))
           done));
    (* [wait] re-raises any task failure BEFORE the slots are read, so a
       chunk abandoned mid-way (slots after the raising element stay
       [None]) can never reach the [assert false] below — pinned by a
       regression test in test_util.ml *)
    wait pool;
    Array.map (function Some v -> v | None -> assert false) out
  end

let map_on pool ?chunk f xs =
  Array.to_list (map_array_on pool ?chunk f (Array.of_list xs))

let map_array ?domains ?chunk f arr =
  if Array.length arr = 0 then [||]
  else begin
    let pool = create ?domains () in
    Fun.protect
      ~finally:(fun () -> shutdown pool)
      (fun () -> map_array_on pool ?chunk f arr)
  end

let map ?domains ?chunk f xs =
  Array.to_list (map_array ?domains ?chunk f (Array.of_list xs))
