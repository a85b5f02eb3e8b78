(** The list-based block partition that shipped before the run-copying
    one, kept verbatim as the yardstick of its differential test.  Not
    for pipeline use. *)

val partition :
  ?options:Ds_cfg.Builder.options -> Ds_isa.Insn.t list -> Ds_cfg.Block.t list
