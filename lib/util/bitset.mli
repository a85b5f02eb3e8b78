(** Bit sets: a growable set of non-negative ints (the reservation
    scheduler's busy cycles) and the fixed-shape bit matrix that holds
    the paper's reachability bit maps. *)

type t

(** All index arguments must be non-negative: [set] and [mem] raise
    [Invalid_argument] on a negative index. *)

(** Empty set with minimal capacity. *)
val create : unit -> t

(** [set] grows the set on demand; [mem] past its capacity is [false]. *)
val set : t -> int -> unit
val mem : t -> int -> bool

(** Fixed-shape two-dimensional bit matrix in one contiguous int array —
    the arena form of the paper's reachability bit maps (one row per DAG
    node; the §2 merge is a row-over-row OR with zero per-arc
    allocation).  Rows do not grow: [set] on a column at or past [cols]
    raises; [clear] is a no-op there and [mem] reports [false], as
    [mem] does past a growable set's capacity.  Negative indices raise
    [Invalid_argument], like the growable sets. *)
module Matrix : sig
  type m

  val create : rows:int -> cols:int -> m
  val rows : m -> int
  val cols : m -> int

  val set : m -> int -> int -> unit
  val clear : m -> int -> int -> unit
  val mem : m -> int -> int -> bool

  (** Reset every bit of row [i]. *)
  val clear_row : m -> int -> unit

  (** [union_rows m ~into ~from]: row [into] := row [into] OR row [from]. *)
  val union_rows : m -> into:int -> from:int -> unit

  val row_cardinal : m -> int -> int
  val iter_row : (int -> unit) -> m -> int -> unit

  (** [row_equal a i b j] compares row [i] of [a] with row [j] of [b] as
      sets (shape-independent). *)
  val row_equal : m -> int -> m -> int -> bool

  (** [row_subset a i b j]: every element of row [i] of [a] is in row
      [j] of [b] (shape-independent). *)
  val row_subset : m -> int -> m -> int -> bool
end
