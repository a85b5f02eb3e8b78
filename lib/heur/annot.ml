(** Static heuristic annotations.

    One value per DAG node for every heuristic that can be computed before
    the scheduling pass (Table 1 columns `a`, `f`, `b`, `f+b`).  The
    column-`a` values live on the DAG itself (counters maintained by
    [Dag.add_arc]); this record holds the pass-computed ones.  A column
    the pass did not compute is empty. *)

type t = {
  exec_time : int array;             (* a: operation latency *)
  max_path_to_leaf : int array;      (* b *)
  max_delay_to_leaf : int array;     (* b *)
  max_path_from_root : int array;    (* f *)
  max_delay_from_root : int array;   (* f *)
  est : int array;                   (* f: earliest start time *)
  lst : int array;                   (* b: latest start time *)
  slack : int array;                 (* f+b *)
  num_descendants : int array;       (* b, via reachability bit maps *)
  sum_exec_of_descendants : int array; (* b *)
  registers_born : int array;        (* a *)
  registers_killed : int array;      (* a *)
  liveness : int array;              (* a: born - killed, Warren-style *)
  critical_path_length : int;        (* max over nodes of est + exec *)
}
