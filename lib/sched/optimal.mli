(** Branch-and-bound optimal scheduling for small basic blocks — the
    paper's planned extension (§7).  Searches the issue orders the DAG
    allows, timed in the pipeline's machine state (the units of
    {!Schedule.cycles}), pruned by admissible critical-path and
    issue-slot bounds, from an incumbent that is the best of a greedy
    order and the six published orders. *)

type result = {
  schedule : Schedule.t;
  cycles : int;            (* [Schedule.cycles schedule] *)
  optimal : bool;          (* exhaustive search completed within budget *)
  nodes_explored : int;
}

val default_budget : int

(** [run ?budget dag] finds a minimum-completion schedule.  Blocks beyond
    ~20 instructions explode combinatorially; [budget] bounds the search
    and [optimal] reports whether it was exhaustive.  Never worse than
    any published strategy's order on [dag]. *)
val run : ?budget:int -> Ds_dag.Dag.t -> result
