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
  let last = st.last in
  if last < 0 then 0
  else
    (* the one coalesced arc from [last] to the candidate, if any *)
    let a = Dyn_state.out_arc st last ~peer:i in
    if a >= 0 && Ds_dag.Dag.arc_latency st.dag a > 1 then 1 else 0

let earliest_execution_time (st : Dyn_state.t) i = st.earliest_exec.(i)

(** Cycles the candidate would wait for its non-pipelined FP unit. *)
let fp_unit_busy (st : Dyn_state.t) i =
  let insn = Ds_dag.Dag.insn st.dag i in
  let model = Ds_dag.Dag.model st.dag in
  if model.Latency.fp_busy insn > 0 then
    let u = Funit.index (Funit.of_insn insn) in
    Int.max 0 (st.unit_free.(u) - st.time)
  else 0

(** 1 when the candidate's class differs from the last scheduled
    instruction's — the superscalar alternation preference. *)
let alternate_type (st : Dyn_state.t) i =
  let last = st.last in
  if last < 0 then 0
  else if
    Funit.of_insn (Ds_dag.Dag.insn st.dag i)
    <> Funit.of_insn (Ds_dag.Dag.insn st.dag last)
  then 1
  else 0

(* What the single-parent heuristics sum over the children
   (scheduling-direction successors) of [i] whose only remaining
   unscheduled predecessor is [i] itself. *)
type measure = Count | Delay_sum | Uncovered

let single_parent_children (st : Dyn_state.t) i measure =
  let acc = ref 0 and a = ref (Dyn_state.out_first st i) in
  while !a >= 0 do
    let peer = Dyn_state.out_peer st !a in
    if Dyn_state.unscheduled_preds_of_peer st peer = 1 then begin
      let latency = Ds_dag.Dag.arc_latency st.dag !a in
      match measure with
      | Count -> incr acc
      | Delay_sum -> acc := !acc + latency
      | Uncovered ->
          if latency <= 1 && st.earliest_exec.(peer) <= st.time + 1 then incr acc
    end;
    a := Dyn_state.out_next st !a
  done;
  !acc

let num_single_parent_children st i = single_parent_children st i Count

let sum_delays_to_single_parent_children st i =
  single_parent_children st i Delay_sum

(** Exactly how many nodes join the candidate list if [i] issues now: the
    single-parent condition "extended to also require that the delay to
    the child be equal to one", plus the child's earliest execution time
    not pushing it past the next cycle. *)
let num_uncovered_children st i = single_parent_children st i Uncovered

(** Tiemann's birthing adjustment: in a backward pass, 1 when the candidate
    is a RAW parent of the most recently scheduled node — choosing it next
    shortens the corresponding register lifetime. *)
let birthing_instruction (st : Dyn_state.t) i =
  let last = st.last in
  if last < 0 then 0
  else
    let a = Dyn_state.out_arc st last ~peer:i in
    if a >= 0 && Ds_dag.Dag.arc_kind st.dag a = Dep.Raw then 1 else 0
