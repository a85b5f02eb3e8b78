(** Monotonic-leaning wall clock shared by every timing site (span
    recorder, [Stats.time_runs], the serve daemon).  See clock.mli. *)

(* Highest timestamp handed out so far, across all domains, held as the
   bits of the (non-negative) epoch float: for those, integer order is
   float order.  An immediate int in the atomic means advancing it
   allocates nothing, so what a call allocates never depends on whether
   the clock moved since the last one. *)
let last = Atomic.make 0

let rec advance bits =
  let seen = Atomic.get last in
  if bits <= seen then seen
  else if Atomic.compare_and_set last seen bits then bits
  else advance bits

let now () =
  let bits = Int64.to_int (Int64.bits_of_float (Unix.gettimeofday ())) in
  Int64.float_of_bits (Int64.of_int (advance bits))

let clamp d = if d > 0.0 then d else 0.0

let duration ~start ~stop = clamp (stop -. start)

let since start = duration ~start ~stop:(now ())
