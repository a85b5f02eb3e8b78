(** Parser and printer for the textual SPARC-like assembly.

    One instruction per line; labels end with [:] and may share a line
    with an instruction; comments run from [!] or [#] to end of line;
    memory operands are bracketed; a branch annul bit is a [,a] mnemonic
    suffix. *)

exception Parse_error of string

(** Parse a whole program: labels attach to the following instruction,
    instructions are numbered consecutively from zero.  Raises
    [Parse_error] with a line-numbered message. *)
val parse_program : string -> Insn.t list

(** Like {!parse_program}, [Error message] instead of an exception. *)
val parse_program_result : string -> (Insn.t list, string) result

(** Render a program back to text; parsing the result yields the same
    instruction list (round trip, tested). *)
val print_program : Insn.t list -> string
