(** Static heuristic annotations: one value per DAG node for every
    heuristic computable before the scheduling pass (Table 1 columns `a`,
    `f`, `b`, `f+b`).  Column-`a` values live on the DAG itself; this
    record holds the pass-computed ones.  {!create} allocates every
    column; [Static_pass.compute] fills them all, while
    [Static_pass.compute_for] fills only the walks and groups its
    heuristics name and leaves the other columns zero (see
    static_pass.mli). *)

type t = {
  exec_time : int array;               (* a *)
  max_path_to_leaf : int array;        (* b *)
  max_delay_to_leaf : int array;       (* b *)
  max_path_from_root : int array;      (* f *)
  max_delay_from_root : int array;     (* f *)
  est : int array;                     (* f: earliest start time *)
  lst : int array;                     (* b: latest start time *)
  slack : int array;                   (* f+b *)
  num_descendants : int array;         (* b, via reachability bit maps *)
  sum_exec_of_descendants : int array; (* b *)
  registers_born : int array;          (* a *)
  registers_killed : int array;        (* a *)
  liveness : int array;                (* a: born - killed *)
  critical_path_length : int;          (* max over nodes of est + exec *)
}

val create : int -> t
val with_critical_path : t -> int -> t
