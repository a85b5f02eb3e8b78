(** SPARC-like register file.

    Thirty-two integer registers in four window groups ([%g], [%o], [%l],
    [%i]) and thirty-two single-precision FP registers.  [%g0] is
    hardwired to zero and never a dependence resource; [%o6]/[%i6] carry
    the [%sp]/[%fp] aliases used by the storage-class disambiguation
    rules.  SAVE/RESTORE rotate the window, which is why basic blocks end
    at window-altering instructions. *)

type t =
  | Int of int    (* 0..31: %g0-7, %o0-7, %l0-7, %i0-7 *)
  | Float of int  (* 0..31: %f0-31 *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val g0 : t
val sp : t  (* %o6 *)
val fp : t  (* %i6 *)

(** [%g0]: writes discarded, reads constant zero. *)
val is_zero : t -> bool

(** [%sp] or [%fp] — a stack-frame base. *)
val is_stack_base : t -> bool

(** Constructors; raise [Invalid_argument] outside 0..31. *)
val int : int -> t
val float : int -> t

(** Conventional names ([%o3], [%sp], [%f17], ...). *)
val to_string : t -> string

(** [of_sub s pos len] decodes the register named by the [len] bytes of
    [s] at [pos], in place: the parser's decoder, which allocates
    nothing.  Raises [Not_found] on an unknown name, an out-of-range
    number included ([%g8], [%f32], [%g-1]). *)
val of_sub : string -> int -> int -> t

(** Inverse of [to_string]: {!of_sub} over the whole string; raises
    [Invalid_argument] on unknown names. *)
val of_string : string -> t

(** The odd register of a double-word pair (LDD/LDDF targets); [None] for
    odd or last registers.  The paper notes the RAW delays from the two
    halves can differ by a cycle. *)
val pair_partner : t -> t option

val pp : Format.formatter -> t -> unit
