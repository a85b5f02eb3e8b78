(** The closure-walking schedule check, kept as the yardstick for the
    differential tests of {!Ds_sched.Verify}.  Not for pipeline use. *)

val check : Ds_sched.Schedule.t -> (unit, Ds_sched.Verify.violation) result
