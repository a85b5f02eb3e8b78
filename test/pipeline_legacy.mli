(** The pre-scan pipeline simulator (resource state in a [Hashtbl],
    reader lists), kept as the yardstick for the flat simulator's differential
    tests.  Not for pipeline use. *)

val run : Ds_machine.Latency.t -> Ds_isa.Insn.t array -> Ds_machine.Pipeline.result
