(** Monotonic-leaning wall clock shared by every timing site (span
    recorder, [Stats.time_runs], the serve daemon).  See clock.mli. *)

(* Highest timestamp handed out so far, across all domains, in integer
   nanoseconds since the epoch (about 2^60.6 today, well inside 63
   bits).  An immediate int in the atomic means advancing it allocates
   nothing, so what a call allocates never depends on whether the clock
   moved since the last one. *)
let last = Atomic.make 0

let rec advance ns =
  let seen = Atomic.get last in
  if ns <= seen then seen
  else if Atomic.compare_and_set last seen ns then ns
  else advance ns

let now_ns () = advance (int_of_float (Unix.gettimeofday () *. 1e9))

let now () = float_of_int (now_ns ()) *. 1e-9

let clamp d = if d > 0.0 then d else 0.0

let duration ~start ~stop = clamp (stop -. start)

let since start = duration ~start ~stop:(now ())
