(** The dynamic heuristics (Table 1 column `v`), evaluated against the
    scheduler state for a candidate node. *)

open Ds_machine

(** "Whether a candidate node will be unable to execute in the next cycle
    due to a data dependency with the most recently scheduled node" — the
    paper's criterion: follow the links from the most recently scheduled
    node and "see if ... the corresponding parent-to-child arc has a delay
    greater than one".  The paper calls the heuristic expensive and notes
    earliest execution time does the job better. *)
let interlock_with_previous (st : Dyn_state.t) i =
  match st.last with
  | None -> 0
  | Some last ->
      let interlocks =
        Dyn_state.fold_successors st last
          (fun found peer latency _ -> found || (peer = i && latency > 1))
          false
      in
      if interlocks then 1 else 0

let earliest_execution_time (st : Dyn_state.t) i = st.earliest_exec.(i)

(** Cycles the candidate would wait for its non-pipelined FP unit. *)
let fp_unit_busy (st : Dyn_state.t) i =
  let insn = Ds_dag.Dag.insn st.dag i in
  let model = Ds_dag.Dag.model st.dag in
  if model.Latency.fp_busy insn > 0 then
    let u = Funit.index (Funit.of_insn insn) in
    max 0 (st.unit_free.(u) - st.time)
  else 0

(** 1 when the candidate's class differs from the last scheduled
    instruction's — the superscalar alternation preference. *)
let alternate_type (st : Dyn_state.t) i =
  match st.last with
  | None -> 0
  | Some last ->
      if
        Funit.of_insn (Ds_dag.Dag.insn st.dag i)
        <> Funit.of_insn (Ds_dag.Dag.insn st.dag last)
      then 1
      else 0

(* Children (scheduling-direction successors) of [i] whose only remaining
   unscheduled predecessor is [i] itself. *)
let fold_single_parent_children (st : Dyn_state.t) i f acc =
  Dyn_state.fold_successors st i
    (fun acc peer latency _ ->
      if Dyn_state.unscheduled_preds_of_peer st peer = 1 then f acc peer latency
      else acc)
    acc

let num_single_parent_children st i =
  fold_single_parent_children st i (fun acc _ _ -> acc + 1) 0

let sum_delays_to_single_parent_children st i =
  fold_single_parent_children st i (fun acc _ latency -> acc + latency) 0

(** Exactly how many nodes join the candidate list if [i] issues now: the
    single-parent condition "extended to also require that the delay to
    the child be equal to one", plus the child's earliest execution time
    not pushing it past the next cycle. *)
let num_uncovered_children (st : Dyn_state.t) i =
  fold_single_parent_children st i
    (fun acc peer latency ->
      if latency <= 1 && st.earliest_exec.(peer) <= st.time + 1 then acc + 1
      else acc)
    0

(** Tiemann's birthing adjustment: in a backward pass, 1 when the candidate
    is a RAW parent of the most recently scheduled node — choosing it next
    shortens the corresponding register lifetime. *)
let birthing_instruction (st : Dyn_state.t) i =
  match st.last with
  | None -> 0
  | Some last ->
      let is_raw_parent =
        Dyn_state.fold_successors st last
          (fun found peer _ kind -> found || (peer = i && kind = Dep.Raw))
          false
      in
      if is_raw_parent then 1 else 0
