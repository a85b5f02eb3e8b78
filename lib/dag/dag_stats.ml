(** Structural statistics of constructed DAGs — the "children/inst" and
    "arcs/basic block" columns of Tables 4 and 5. *)

type t = {
  children_per_inst_max : int;
  children_per_inst_avg : float;
  arcs_per_block_max : int;
  arcs_per_block_avg : float;
  total_arcs : int;
  total_insns : int;
  blocks : int;
}

let of_dags dags =
  let children = Ds_util.Stats.create () in
  let arcs = Ds_util.Stats.create () in
  List.iter
    (fun dag ->
      for i = 0 to Dag.length dag - 1 do
        Ds_util.Stats.add_int children (Dag.n_children dag i)
      done;
      Ds_util.Stats.add_int arcs (Dag.n_arcs dag))
    dags;
  {
    children_per_inst_max = int_of_float (Ds_util.Stats.max_value children);
    children_per_inst_avg = Ds_util.Stats.mean children;
    arcs_per_block_max = int_of_float (Ds_util.Stats.max_value arcs);
    arcs_per_block_avg = Ds_util.Stats.mean arcs;
    total_arcs = int_of_float (Ds_util.Stats.total arcs);
    total_insns = Ds_util.Stats.count children;
    blocks = Ds_util.Stats.count arcs;
  }

let pp fmt t =
  Format.fprintf fmt
    "children/inst max %d avg %.2f; arcs/block max %d avg %.2f (%d arcs, %d insns, %d blocks)"
    t.children_per_inst_max t.children_per_inst_avg t.arcs_per_block_max
    t.arcs_per_block_avg t.total_arcs t.total_insns t.blocks

(** Deeper structural shape of one DAG — the "DAG structural statistics
    that will be helpful in future research" of the paper's conclusion 7:
    depth (longest path in arcs), width (largest level population, an
    antichain lower bound), available parallelism (nodes / depth+1), and
    how many nodes are roots/leaves. *)
type shape = {
  nodes : int;
  arcs : int;
  depth : int;            (* longest path, in arcs *)
  width : int;            (* max nodes at one depth level *)
  parallelism : float;    (* nodes / (depth + 1) *)
  roots : int;
  leaves_ : int;
  transitive : int;       (* transitive arc count *)
}

let shape_of dag =
  let n = Dag.length dag in
  let level = Array.make n 0 in
  let depth = ref 0 in
  for i = 0 to n - 1 do
    Dag.iter_pred dag i (fun src _ _ ->
        level.(i) <- max level.(i) (level.(src) + 1));
    if level.(i) > !depth then depth := level.(i)
  done;
  let per_level = Array.make (!depth + 1) 0 in
  Array.iter (fun l -> per_level.(l) <- per_level.(l) + 1) level;
  {
    nodes = n;
    arcs = Dag.n_arcs dag;
    depth = !depth;
    width = Array.fold_left max 0 per_level;
    parallelism =
      (if n = 0 then 0.0
       else float_of_int n /. float_of_int (!depth + 1));
    roots = List.length (Dag.roots dag);
    leaves_ = List.length (Dag.leaves dag);
    transitive = Closure.count_transitive_arcs dag;
  }

(** Aggregate shape over a workload's DAGs (averages weighted by block). *)
type shape_summary = {
  blocks_ : int;
  avg_depth : float;
  max_depth : int;
  avg_width : float;
  max_width : int;
  avg_parallelism : float;
  avg_roots : float;
  total_transitive : int;
}

let shape_summary dags =
  let depth = Ds_util.Stats.create () in
  let width = Ds_util.Stats.create () in
  let par = Ds_util.Stats.create () in
  let roots = Ds_util.Stats.create () in
  let transitive = ref 0 in
  List.iter
    (fun dag ->
      let s = shape_of dag in
      Ds_util.Stats.add_int depth s.depth;
      Ds_util.Stats.add_int width s.width;
      Ds_util.Stats.add par s.parallelism;
      Ds_util.Stats.add_int roots s.roots;
      transitive := !transitive + s.transitive)
    dags;
  {
    blocks_ = Ds_util.Stats.count depth;
    avg_depth = Ds_util.Stats.mean depth;
    max_depth = int_of_float (Ds_util.Stats.max_value depth);
    avg_width = Ds_util.Stats.mean width;
    max_width = int_of_float (Ds_util.Stats.max_value width);
    avg_parallelism = Ds_util.Stats.mean par;
    avg_roots = Ds_util.Stats.mean roots;
    total_transitive = !transitive;
  }
