(** Static heuristic annotations: one value per DAG node for every
    heuristic computable before the scheduling pass (Table 1 columns `a`,
    `f`, `b`, `f+b`).  Column-`a` values live on the DAG itself; this
    record holds the pass-computed ones, built by [Static_pass].

    A column is either one value per node or empty ([[||]]): empty when
    the pass that built the record did not compute it.
    [Static_pass.compute] allocates every column (the costly groups it
    was told to skip hold zeros); [Static_pass.compute_for] allocates
    [exec_time] and only the columns its heuristics read, and
    [Static_pass.backward_only] [exec_time] and the backward walk's
    three.  [Evaluate.value] on an empty column raises
    [Invalid_argument] naming the heuristic (see static_pass.mli). *)

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
