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

    Nodes are visited in reverse program order and candidates in ascending
    order, so a candidate's descendant map is already complete when merged;
    the produced DAG is transitively reduced.  The maps live in one
    contiguous bit matrix (one row per node) and the merge is a row-OR
    with zero per-arc allocation; they are retained on the DAG — the paper
    notes [#descendants] then falls out as a population count. *)

(* dependencies whose direct arc the reachability test suppressed *)
let pruned_counter = Ds_obs.Metrics.counter "dag.transitive_arcs_pruned"

let build (opts : Opts.t) (block : Ds_cfg.Block.t) =
  let insns = block.Ds_cfg.Block.insns in
  let dag = Dag.create ~model:opts.model insns in
  let sums = Pairdep.summarize_block opts.strategy insns in
  let n = Array.length insns in
  let reach = Ds_util.Bitset.Matrix.create ~rows:n ~cols:n in
  for i = 0 to n - 1 do
    Ds_util.Bitset.Matrix.set reach i i
  done;
  for a = n - 2 downto 0 do
    for b = a + 1 to n - 1 do
      let pk =
        Pairdep.strongest_packed sums ~model:opts.model
          ~strategy:opts.strategy insns a b
      in
      if pk >= 0 then begin
        if Ds_util.Bitset.Matrix.mem reach a b then
          Ds_obs.Metrics.incr pruned_counter
        else begin
          Ds_util.Bitset.Matrix.union_rows reach ~into:a ~from:b;
          ignore
            (Dag.add_arc dag ~src:a ~dst:b ~kind:(Pairdep.kind_of_packed pk)
               ~latency:(Pairdep.latency_of_packed pk))
        end
      end
    done
  done;
  if opts.anchor_branch then begin
    Dag.anchor_terminator dag;
    (* anchoring adds leaf->branch arcs after the fact; refresh the maps so
       ancestors of the anchored leaves also see the branch *)
    for i = n - 1 downto 0 do
      Dag.iter_succ dag i (fun dst _ _ ->
          Ds_util.Bitset.Matrix.union_rows reach ~into:i ~from:dst)
    done
  end;
  Dag.set_reach_matrix dag reach;
  dag
