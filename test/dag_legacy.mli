(** The pre-arena DAG representation, kept verbatim as a yardstick for
    the differential tests.  Faithfully preserves the two
    historical bugs of the list-based structure: [find_arc]'s unbounded
    hash key (out-of-range queries alias in-range pairs) and the
    insertion-order-dependent [kind] on an equal-latency coalesce.  Not
    for pipeline use. *)

type arc = {
  src : int;
  dst : int;
  kind : Ds_machine.Dep.kind;
  latency : int;
}

type t

val create : model:Ds_machine.Latency.t -> Ds_isa.Insn.t array -> t

val length : t -> int
val insn : t -> int -> Ds_isa.Insn.t
val model : t -> Ds_machine.Latency.t

val succs : t -> int -> arc list
val preds : t -> int -> arc list

val n_children : t -> int -> int
val n_parents : t -> int -> int
val n_arcs : t -> int
val sum_delays_to_children : t -> int -> int
val max_delay_to_child : t -> int -> int
val sum_delays_from_parents : t -> int -> int
val max_delay_from_parent : t -> int -> int
val interlock_with_child : t -> int -> bool

(** Historical behaviour: no bounds check on the [src * n + dst] key, so
    out-of-range queries can report phantom arcs. *)
val find_arc : t -> src:int -> dst:int -> arc option

val has_arc : t -> src:int -> dst:int -> bool

(** Historical behaviour: an equal-latency coalesce keeps whichever kind
    arrived first. *)
val add_arc :
  t -> src:int -> dst:int -> kind:Ds_machine.Dep.kind -> latency:int -> bool

val roots : t -> int list
val leaves : t -> int list
val anchor_terminator : t -> unit

val iter_arcs : (arc -> unit) -> t -> unit
val arcs : t -> arc list

(** The pre-arena forward table builder against this legacy structure. *)
val build_table_fwd : Ds_dag.Opts.t -> Ds_cfg.Block.t -> t
