(** Schedule validity: a legal schedule is a permutation of the block that
    respects every dependence arc. *)

type violation =
  | Not_a_permutation
  | Arc_violated of Ds_dag.Dag.arc

(** [Ok ()] when the order is a permutation of the block's nodes that
    issues every arc's source before its destination; otherwise the
    first violation: [Not_a_permutation], or the first violated arc in
    {!Ds_dag.Dag.iter_arcs} order.  Node positions live in a per-domain
    scratch and the arcs are read through the DAG's cursor, so a valid
    schedule allocates nothing; an [Arc_violated] result allocates its
    arc. *)
val check : Schedule.t -> (unit, violation) result

val is_valid : Schedule.t -> bool
val violation_to_string : violation -> string
