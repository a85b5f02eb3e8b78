(** Dependence resources: anything an instruction can define or use such
    that a later instruction touching the same resource creates a data
    dependency — registers, condition codes, the Y register and memory
    (one resource per symbolic expression, or the single serialized
    [Mem_all]). *)

type t =
  | R of Reg.t          (* integer or floating point register *)
  | Icc                 (* integer condition codes *)
  | Fcc                 (* floating point condition codes *)
  | Y                   (* multiply/divide Y register *)
  | Mem of Mem_expr.t   (* one symbolic memory expression *)
  | Mem_all             (* all of memory, serialized *)
  | Ctrl                (* control resource *)

(** [of_reg r] is [R r] from a preallocated table — allocation-free on
    the resource-extraction hot path. *)
val of_reg : Reg.t -> t

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val is_memory : t -> bool
val is_register : t -> bool

val to_string : t -> string
val pp : Format.formatter -> t -> unit

(** Hash tables keyed by resources — the "record of the last definition of
    a resource and the set of current uses" of table-building DAG
    construction. *)
module Tbl : Hashtbl.S with type key = t

(** Dense resource ids.  Registers, the condition codes, [%y], [Mem_all]
    and [Ctrl] have fixed ids below {!Ids.n_fixed}; symbolic memory
    expressions are interned (in an open-addressed table hashed on base
    and offset) from [n_fixed] up on first encounter and
    keep their id until {!Ids.clear}, so the table grows when a new
    expression appears — the variable-length table the paper observed
    on fpppp.  A table is mutable and unsynchronized: keep one per
    domain. *)
module Ids : sig
  type resource = t
  type t

  val create : unit -> t

  (** Id of the resource, interning a memory expression on first
      encounter. *)
  val id : t -> resource -> int

  (** [mem_id t m delta] is [id t (Mem m')] where [m'] is [m] with
      [delta] added to its offset, without building [m'] or the [Mem]
      box unless the expression is new. *)
  val mem_id : t -> Mem_expr.t -> int -> int

  (** The resource an id denotes (the first one interned under it). *)
  val resource : t -> int -> resource

  (** Memory expressions interned so far. *)
  val interned : t -> int

  (** Forget every interned memory expression: ids from {!n_fixed} up
      are handed out afresh, and the table shrinks to its initial
      size. *)
  val clear : t -> unit

  val mem_all : int
  val n_fixed : int
end
