(** The pre-cursor, line-splitting parser, kept as the yardstick for the
    cursor parser's differential tests.  An unknown memory-base register
    escapes it as [Invalid_argument], a negative register number decodes,
    and a tab after the mnemonic on a line with a space is rejected.  Not
    for pipeline use. *)

exception Parse_error of string

val parse_program : string -> Ds_isa.Insn.t list
val parse_program_result : string -> (Ds_isa.Insn.t list, string) result
