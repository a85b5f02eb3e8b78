(** Arc timing, the optimal search's former cost model (see
    arc_timing.mli). *)

open Dagsched

(* Each node issues at the earliest of the slot after its predecessor,
   every parent's issue plus the arc latency, and its unit's free cycle
   when the unit is busy; completion is the last issue plus its
   execution time. *)
let evaluate dag order =
  let model = Dag.model dag in
  let n = Dag.length dag in
  let earliest = Array.make n 0 in
  let unit_free = Array.make Funit.count 0 in
  let time = ref 0 and completion = ref 0 in
  Array.iter
    (fun i ->
      let insn = Dag.insn dag i in
      let busy = model.Latency.fp_busy insn in
      let unit = Funit.index (Funit.of_insn insn) in
      let at = max !time earliest.(i) in
      let at = if busy > 0 then max at unit_free.(unit) else at in
      Dag.iter_succ dag i (fun dst latency _ ->
          earliest.(dst) <- max earliest.(dst) (at + latency));
      if busy > 0 then unit_free.(unit) <- at + busy;
      time := at + 1;
      completion := max !completion (at + model.Latency.exec_time insn))
    order;
  !completion
