(** The compare-against-all reach-backward builder, kept as the
    yardstick for the differential tests of {!Ds_dag.Build_reach}.  Not
    for pipeline use. *)

val build : Ds_dag.Opts.t -> Ds_cfg.Block.t -> Ds_dag.Dag.t
