(** SPARC-like opcode set: a compact but realistic subset of SPARC V7
    integer and FPU instructions, each carrying a class used by the
    machine timing models and the instruction-class heuristics. *)

type t =
  (* integer ALU *)
  | Add | Sub | And | Or | Xor | Andn | Orn | Xnor
  | Sll | Srl | Sra
  | Addcc | Subcc | Andcc | Orcc
  | Smul | Umul
  | Sdiv | Udiv
  | Sethi | Mov | Cmp
  (* loads and stores *)
  | Ld | Ldd | Ldub | Ldsb | Lduh | Ldsh
  | Ldf | Lddf
  | St | Std | Stb | Sth | Stf | Stdf
  (* floating point *)
  | Fadds | Faddd | Fsubs | Fsubd
  | Fmuls | Fmuld | Fdivs | Fdivd
  | Fsqrts | Fsqrtd
  | Fmovs | Fnegs | Fabss
  | Fcmps | Fcmpd
  | Fitos | Fitod | Fstoi | Fdtoi | Fstod | Fdtos
  (* control transfer *)
  | Ba | Bn | Be | Bne | Bg | Ble | Bge | Bl | Bgu | Bleu | Bcs | Bcc_
  | Fba | Fbe | Fbne | Fbg | Fbl | Fbge | Fble
  | Call | Jmpl | Ret
  | Save | Restore
  | Nop

(** Instruction classes driving the timing model and the alternate-type
    heuristic. *)
type cls =
  | C_ialu | C_imul | C_idiv
  | C_load | C_store
  | C_fpadd | C_fpmul | C_fpdiv | C_fpmisc
  | C_branch | C_call | C_window | C_nop

val cls : t -> cls

val is_branch : t -> bool
val is_call : t -> bool
val is_load : t -> bool
val is_store : t -> bool
val is_fp : t -> bool

(** Writers/readers of the condition-code registers. *)
val sets_icc : t -> bool
val sets_fcc : t -> bool
val reads_icc : t -> bool
val reads_fcc : t -> bool

(** Double-word memory operations define/use a register pair. *)
val is_doubleword : t -> bool

(** SAVE/RESTORE: register names denote different physical resources on
    each side, so these terminate basic blocks. *)
val alters_window : t -> bool

val all : t list

(** Dense index: [all]'s opcodes are [0 .. count - 1] in order.  The
    machine models' per-opcode tables are read at it. *)
val index : t -> int

val count : int

val to_string : t -> string

(** [of_sub s pos len] is the opcode named by the [len] bytes of [s] at
    [pos], ignoring ASCII case, decoded in place (the parser's decoder).
    Raises [Not_found] on an unknown name. *)
val of_sub : string -> int -> int -> t

(** {!of_sub} over the whole string. *)
val of_string : string -> t option

val pp : Format.formatter -> t -> unit
