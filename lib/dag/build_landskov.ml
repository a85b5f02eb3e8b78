(** Landskov-style construction: n² forward with transitive-arc avoidance.

    "The algorithm presented by Landskov, et al., is a modification of the
    n**2 forward algorithm; it examines leaves first and prunes away any
    ancestors whenever a dependency is observed" (§2).  We scan candidates
    from the most recent instruction backward, and once a dependency on
    node [i] is found, [i] and all of [i]'s ancestors are excluded — they
    are already transitively ordered before the new node.  The result is a
    transitively reduced DAG.  Under [anchor_branch] the terminating
    branch's candidates include the anchoring: a candidate with no
    children yet is a leaf, which the branch follows by a CTL arc, and
    it prunes its ancestors like any dependency — so anchoring keeps the
    DAG reduced.

    The ancestor sets live in one bit matrix (row [i] = ancestors of
    node [i]); an extra scratch row holds the per-node covered set, so
    the pruning bookkeeping is row-OR merges with zero per-pair
    allocation.

    The paper *recommends against* this treatment (conclusion 3): Figure 1
    shows a pruned direct RAW arc whose latency information cannot be
    recovered through the retained WAR-then-RAW path.  This builder exists
    so the bench can demonstrate exactly that. *)

let build (opts : Opts.t) (block : Ds_cfg.Block.t) =
  let insns = block.Ds_cfg.Block.insns in
  let dag = Dag.create ~model:opts.model insns in
  let sums = Pairdep.summarize_block opts.strategy insns in
  let n = Array.length insns in
  (* rows 0..n-1: ancestors.(i), complete once i is processed; row n is
     the covered scratch row, cleared per child *)
  let anc = Ds_util.Bitset.Matrix.create ~rows:(n + 1) ~cols:(max n 1) in
  let covered = n in
  (* covered-candidate skips: each is a transitively ordered parent whose
     (potential) direct arc the pruning suppressed — the quantity the
     paper's conclusion 3 is about *)
  let pruned = ref 0 in
  let anchor = opts.anchor_branch && Dag.has_terminator dag in
  for j = 1 to n - 1 do
    Ds_util.Bitset.Matrix.clear_row anc covered;
    for i = j - 1 downto 0 do
      if Ds_util.Bitset.Matrix.mem anc covered i then incr pruned
      else begin
        let pk =
          Pairdep.strongest_packed sums ~model:opts.model
            ~strategy:opts.strategy insns i j
        in
        let leaf = pk < 0 && anchor && j = n - 1 && Dag.n_children dag i = 0 in
        if pk >= 0 || leaf then begin
          if leaf then
            ignore (Dag.add_arc dag ~src:i ~dst:j ~kind:Ds_machine.Dep.Ctl ~latency:1)
          else
            ignore
              (Dag.add_arc dag ~src:i ~dst:j ~kind:(Pairdep.kind_of_packed pk)
                 ~latency:(Pairdep.latency_of_packed pk));
          Ds_util.Bitset.Matrix.set anc covered i;
          Ds_util.Bitset.Matrix.union_rows anc ~into:covered ~from:i;
          Ds_util.Bitset.Matrix.set anc j i;
          Ds_util.Bitset.Matrix.union_rows anc ~into:j ~from:i
        end
      end
    done
  done;
  Ds_obs.Trace.count "transitive_arcs_pruned" !pruned;
  dag
