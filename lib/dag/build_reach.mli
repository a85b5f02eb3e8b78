(** Backward construction with reachability bit maps (§2's second
    transitive-arc prevention scheme, paired with backward table
    construction as the paper pairs them): the block's table-backward
    DAG, reduced by {!Closure.reduce}'s reach pass.  The maps are
    retained on the DAG: [#descendants] is their population count minus
    one. *)

val build : Opts.t -> Ds_cfg.Block.t -> Dag.t
