(** Backward construction with reachability bit maps.

    The second transitive-arc prevention scheme of §2: the maps use one bit
    position per node to indicate descendants, and each map starts with the
    node reaching itself.  Arc insertion follows the algorithm quoted in
    the paper:

    {v
    /* try to add arc from_a to to_b */
    if ( bit to_b in bitmap_for_a is set ) return;
    bitmap_for_a = bitmap_for_a OR bitmap_for_b;
    add_arc(from_a, to_b);
    v}

    The paper pairs the maps with backward table construction, and so
    does this builder: the candidate arcs are those of the block's
    table-backward DAG, and {!Closure.reduce}'s reach pass tries them,
    nodes in reverse program order and candidates in ascending order, so
    a candidate's descendant map is already complete when merged.  The
    kept arcs, with the table arc's kind and latency, form a
    transitively reduced DAG with the same closure.  The maps live in one
    contiguous bit matrix (one row per node) and are retained on the DAG
    — the paper notes [#descendants] then falls out as a population
    count. *)

let build (opts : Opts.t) (block : Ds_cfg.Block.t) =
  let table = Build_table_bwd.build { opts with Opts.anchor_branch = false } block in
  let dag, reach = Closure.reduce table in
  (* the table builder's decode is still this domain's current one *)
  Dag.set_decode_gen dag (Dag.decoded table).Ds_machine.Pipeline.gen;
  (* table arcs whose direct arc the reachability test suppressed *)
  Ds_obs.Trace.count "transitive_arcs_pruned" (Dag.n_arcs table - Dag.n_arcs dag);
  if opts.anchor_branch then begin
    Dag.anchor_terminator dag;
    (* anchoring adds leaf->branch arcs after the fact; refresh the maps so
       ancestors of the anchored leaves also see the branch *)
    for i = Dag.length dag - 1 downto 0 do
      Dag.iter_succ dag i (fun dst _ _ ->
          Ds_util.Bitset.Matrix.union_rows reach ~into:i ~from:dst)
    done
  end;
  Dag.set_reach_matrix dag reach;
  dag
