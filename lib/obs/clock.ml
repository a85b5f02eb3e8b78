(** Monotonic-leaning wall clock shared by every timing site (span
    recorder, [Stats.time_runs], the serve daemon).  See clock.mli. *)

(* Highest timestamp handed out so far, across all domains.  CAS on the
   boxed float: [compare_and_set] compares the box we just read, so a
   lost race simply retries against the newer value. *)
let last = Atomic.make 0.0

let rec advance t =
  let seen = Atomic.get last in
  if t <= seen then seen
  else if Atomic.compare_and_set last seen t then t
  else advance t

let now () = advance (Unix.gettimeofday ())

let clamp d = if d > 0.0 then d else 0.0

let duration ~start ~stop = clamp (stop -. start)

let since start = duration ~start ~stop:(now ())
