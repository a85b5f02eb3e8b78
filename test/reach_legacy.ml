(* Backward construction with reachability bit maps as it stood when
    it ran its own compare-against-all loop: one {!Ds_dag.Pairdep} test
    per ordered pair, in reverse program order, with an arc kept only
    when the pair is not already reachable.  Kept as the yardstick for
    the differential tests of {!Ds_dag.Build_reach}, verbatim but for
    anchoring, which it does as the builder now does: under
    [anchor_branch], a node that depends on nothing later (a leaf) takes
    a CTL arc to the terminating branch as its last candidate, through
    the same reachability test, where it used to be anchored after the
    loop with the maps refreshed.  Not for pipeline use.

    The original module comment follows. *)

open Ds_dag

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

let build (opts : Opts.t) (block : Ds_cfg.Block.t) =
  let insns = block.Ds_cfg.Block.insns in
  let dag = Dag.create ~model:opts.model insns in
  let sums = Pairdep.summarize_block opts.strategy insns in
  let n = Array.length insns in
  let reach = Ds_util.Bitset.Matrix.create ~rows:n ~cols:n in
  for i = 0 to n - 1 do
    Ds_util.Bitset.Matrix.set reach i i
  done;
  (* dependencies whose direct arc the reachability test suppressed *)
  let pruned = ref 0 in
  let anchor = opts.anchor_branch && Dag.has_terminator dag in
  for a = n - 2 downto 0 do
    let has_dep = ref false in
    for b = a + 1 to n - 1 do
      let pk =
        Pairdep.strongest_packed sums ~model:opts.model
          ~strategy:opts.strategy insns a b
      in
      if pk >= 0 then has_dep := true;
      let leaf = anchor && b = n - 1 && not !has_dep in
      if pk >= 0 || leaf then begin
        if Ds_util.Bitset.Matrix.mem reach a b then incr pruned
        else begin
          Ds_util.Bitset.Matrix.union_rows reach ~into:a ~from:b;
          if leaf then
            ignore (Dag.add_arc dag ~src:a ~dst:b ~kind:Ds_machine.Dep.Ctl ~latency:1)
          else
            ignore
              (Dag.add_arc dag ~src:a ~dst:b ~kind:(Pairdep.kind_of_packed pk)
                 ~latency:(Pairdep.latency_of_packed pk))
        end
      end
    done
  done;
  Ds_obs.Trace.count "transitive_arcs_pruned" !pruned;
  Dag.set_reach_matrix dag reach;
  dag
