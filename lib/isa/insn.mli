(** Instructions and their defined/used resources.

    Operands follow SPARC assembler order: sources first, destination
    last.  [defs]/[uses] extract dependence resources with the conventions
    the paper relies on: [%g0] is never a resource; condition-code setters
    define [%icc]/[%fcc] and conditional branches use them; multiplies
    define [%y], divides use it; double-word loads define a register pair
    (and their memory references touch two words); memory references
    yield a [Resource.Mem] carrying the symbolic address expression. *)

type t = {
  index : int;                  (* position within the program *)
  op : Opcode.t;
  operands : Operand.t list;
  annul : bool;                 (* branch annul bit (",a") *)
  label : string option;        (* label attached to this instruction *)
}

val make :
  ?index:int -> ?annul:bool -> ?label:string -> Opcode.t -> Operand.t list -> t

val with_index : t -> int -> t

(** Reusable resource-scan buffer — the allocation-free core behind
    [defs]/[uses_with_pos].  Definition and use positions are always the
    sequential 0-based emission index, so a scan is the resource array
    plus a length; hot paths keep one buffer per domain and loop over
    indices instead of consuming lists. *)
module Scan : sig
  type buf

  val create : unit -> buf
  val len : buf -> int

  (** The [i]th resource; a memory entry is boxed afresh. *)
  val res : buf -> int -> Resource.t

  (** [id ids b i] is [Resource.Ids.id ids (res b i)], without boxing a
      memory entry. *)
  val id : Resource.Ids.t -> buf -> int -> int
end

(** Fill the buffer with the instruction's defined resources (definition
    position = index). *)
val scan_defs : Scan.buf -> t -> unit

(** Fill the buffer with the instruction's used resources (source-operand
    position = index). *)
val scan_uses : Scan.buf -> t -> unit

(** Resources defined, in definition order (a register pair lists the even
    register first). *)
val defs : t -> Resource.t list

(** Resources used, paired with the source-operand position (0-based) for
    asymmetric-bypass latency models. *)
val uses_with_pos : t -> (Resource.t * int) list

val uses : t -> Resource.t list

(** The first memory operand's expression, if any. *)
val memory_expr : t -> Mem_expr.t option

val is_branch : t -> bool
val is_call : t -> bool
val alters_window : t -> bool

val to_string : t -> string
val pp : Format.formatter -> t -> unit

(** Structural equality ignoring program position. *)
val equal_ignoring_index : t -> t -> bool
