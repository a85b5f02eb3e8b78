(** The pre-decode table builders, kept as the yardstick for the
    differential tests of {!Ds_dag.Builder}'s table builders.  Not for
    pipeline use. *)

(** Table-building construction, forward pass. *)
val build_fwd : Ds_dag.Opts.t -> Ds_cfg.Block.t -> Ds_dag.Dag.t

(** Table-building construction, backward pass. *)
val build_bwd : Ds_dag.Opts.t -> Ds_cfg.Block.t -> Ds_dag.Dag.t
