(** The match-based latency models and function-unit rule, kept as the
    yardstick for the table-driven {!Ds_machine.Latency} models and
    {!Ds_machine.Funit.of_insn}.  Not for pipeline use. *)

(** [simple_risc], [deep_fp], [asymmetric_bypass], [unit_latency], in
    the order of {!Ds_machine.Latency.all_models}. *)
val all_models : Ds_machine.Latency.t list

val funit_of_insn : Ds_isa.Insn.t -> Ds_machine.Funit.t
