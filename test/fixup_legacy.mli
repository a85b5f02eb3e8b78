(** The postpass fixup that replays the whole block for every trial
    move, kept as the yardstick for {!Dagsched.Fixup}: the same first
    improving move in each sweep, so the same final orders after the
    same number of improving sweeps.  Not for pipeline use. *)

open Dagsched

(** One sweep: true when it applied a move (to the schedule's order, in
    place). *)
val sweep : Schedule.t -> bool

(** Sweeps to a fixed point, bounded by the block length. *)
val run : Schedule.t -> Schedule.t
