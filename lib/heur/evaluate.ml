(** Uniform heuristic evaluation: one entry point mapping any of the 26
    heuristics (plus original order) to its value for a candidate node,
    pulling static values from the annotations / DAG counters and dynamic
    values from the scheduler state. *)

let not_computed h =
  invalid_arg
    (Printf.sprintf "Evaluate.value: %s: the static pass did not compute its column"
       (Heuristic.to_string h))

(* [h]'s value of node [i] from its annotation column, which the static
   pass leaves empty when it was not asked for [h]. *)
let[@inline] column h (col : int array) i =
  if Array.length col = 0 then not_computed h else col.(i)

let value (h : Heuristic.t) ~(annot : Annot.t) ~(st : Dyn_state.t) i =
  let dag = st.dag in
  match h with
  | Heuristic.Interlock_with_previous -> Dynamic.interlock_with_previous st i
  | Heuristic.Earliest_execution_time -> Dynamic.earliest_execution_time st i
  | Heuristic.Interlock_with_child ->
      if Ds_dag.Dag.interlock_with_child dag i then 1 else 0
  | Heuristic.Execution_time -> annot.exec_time.(i)
  | Heuristic.Alternate_type -> Dynamic.alternate_type st i
  | Heuristic.Fp_unit_busy -> Dynamic.fp_unit_busy st i
  | Heuristic.Max_path_to_leaf -> column h annot.max_path_to_leaf i
  | Heuristic.Max_delay_to_leaf -> column h annot.max_delay_to_leaf i
  | Heuristic.Max_path_from_root -> column h annot.max_path_from_root i
  | Heuristic.Max_delay_from_root -> column h annot.max_delay_from_root i
  | Heuristic.Earliest_start_time -> column h annot.est i
  | Heuristic.Latest_start_time -> column h annot.lst i
  | Heuristic.Slack -> column h annot.slack i
  | Heuristic.Num_children -> Ds_dag.Dag.n_children dag i
  | Heuristic.Delays_to_children Heuristic.Sum ->
      Ds_dag.Dag.sum_delays_to_children dag i
  | Heuristic.Delays_to_children Heuristic.Max ->
      Ds_dag.Dag.max_delay_to_child dag i
  | Heuristic.Num_single_parent_children ->
      Dynamic.num_single_parent_children st i
  | Heuristic.Sum_delays_to_single_parent_children ->
      Dynamic.sum_delays_to_single_parent_children st i
  | Heuristic.Num_uncovered_children -> Dynamic.num_uncovered_children st i
  | Heuristic.Num_parents -> Ds_dag.Dag.n_parents dag i
  | Heuristic.Delays_from_parents Heuristic.Sum ->
      Ds_dag.Dag.sum_delays_from_parents dag i
  | Heuristic.Delays_from_parents Heuristic.Max ->
      Ds_dag.Dag.max_delay_from_parent dag i
  | Heuristic.Num_descendants -> column h annot.num_descendants i
  | Heuristic.Sum_exec_of_descendants -> column h annot.sum_exec_of_descendants i
  | Heuristic.Registers_born -> column h annot.registers_born i
  | Heuristic.Registers_killed -> column h annot.registers_killed i
  | Heuristic.Liveness -> column h annot.liveness i
  | Heuristic.Birthing_instruction -> Dynamic.birthing_instruction st i
  | Heuristic.Original_order -> i

let is_static (h : Heuristic.t) =
  match h with
  | Heuristic.Birthing_instruction -> false
  | _ -> not (Heuristic.is_dynamic h)
