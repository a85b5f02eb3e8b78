(** Monotonic-leaning wall clock.

    [Unix.gettimeofday] can step backwards (NTP slew, VM migration), and
    naive [t1 -. t0] differences then go negative.  Every timing site
    in the tree ({!Trace}, [Stats.time_runs], the serve daemon) reads
    this shim instead:

    - {!now} never decreases across calls, even across domains (the
      highest value handed out so far is remembered and returned again
      if the wall clock stepped back);
    - {!duration} clamps negative differences to [0.0].

    Timestamps remain ordinary wall-clock epoch seconds, so timelines
    recorded by different processes on the same host stay comparable. *)

(** Current time in epoch seconds; non-decreasing across calls and
    domains. *)
val now : unit -> float

(** {!now} in integer nanoseconds.  Allocates nothing, so a site that
    times itself with it allocates the same whether or not the clock
    moved. *)
val now_ns : unit -> int

(** [clamp d] is [d] if positive, else [0.0]. *)
val clamp : float -> float

(** [duration ~start ~stop] is [clamp (stop -. start)]. *)
val duration : start:float -> stop:float -> float

(** [since t] is [duration ~start:t ~stop:(now ())]. *)
val since : float -> float
