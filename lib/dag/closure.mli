(** Transitive closures and transitive-arc accounting from one reach
    pass: nodes from last to first, each row starting with its own bit,
    each node's arcs in ascending destination order; an arc whose
    destination bit is already set is transitive, otherwise the
    destination's row is ORed in.  Verifies the builders against each
    other, counts the arcs that separate the n² DAGs of Table 4 from the
    table-building DAGs of Table 5, and gives reach-backward its
    reduction. *)

(** The pass's descendant rows: row [i] holds [i] and every node [i]
    reaches. *)
val descendants : Dag.t -> Ds_util.Bitset.Matrix.m

(** [reduce dag] is a fresh DAG over [dag]'s instructions holding the
    arcs the pass does not flag transitive, each with its kind and
    latency, added in the pass's order (sources from last to first,
    destinations ascending); and the pass's descendant rows, which are
    also the reduction's.  It carries no decode stamp. *)
val reduce : Dag.t -> Dag.t * Ds_util.Bitset.Matrix.m

(** Same instructions and identical transitive closures — the builders'
    order-equivalence. *)
val equivalent : Dag.t -> Dag.t -> bool

(** Arcs whose endpoints are also connected by a path of length >= 2. *)
val transitive_arcs : Dag.t -> Dag.arc list

val count_transitive_arcs : Dag.t -> int
val is_transitively_reduced : Dag.t -> bool

(** [refines a b]: every ordering constraint of [b] also holds in [a]. *)
val refines : Dag.t -> Dag.t -> bool
