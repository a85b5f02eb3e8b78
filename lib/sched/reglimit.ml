(** Register-pressure-limited scheduling.

    The paper's register-usage section points at "the integration of
    register allocation and instruction scheduling into one pass"
    (Bradlee/Eggers/Henry; Goodman & Hsu).  This module implements the
    Goodman-Hsu-style switching discipline on top of the list engine:

    - while the number of simultaneously live values is below the limit,
      schedule for latency (CSP: code scheduling for pipelines);
    - when scheduling a candidate would reach the limit, switch to
      pressure reduction (CSR): prefer candidates that kill more values
      than they birth, falling back to the latency ranking only among the
      least-pressurizing candidates.

    Live counts are tracked from the per-node births/kills of
    [Liveness], reordered consistently with the partial schedule. *)

open Ds_heur

type result = {
  schedule : Schedule.t;
  max_live : int;          (* high-water mark of simultaneously live values *)
}

(* births/kills of each node, independent of order: a value born at its
   def, killed at its last scheduled use.  We recompute kills dynamically:
   node i kills value (r, def_site) when it is the last *unscheduled* use
   left.  For simplicity and determinism we use the static per-node
   born/killed counts computed on the original order — the standard
   prepass approximation. *)

let run ?(limit = 8) ~keys dag =
  let n = Ds_dag.Dag.length dag in
  let insns = Array.init n (Ds_dag.Dag.insn dag) in
  let live_info = Liveness.compute ~live_out:(fun _ -> false) insns in
  let annot = Static_pass.compute dag in
  let st = Dyn_state.create dag Dyn_state.Forward in
  let live = ref 0 and peak = ref 0 in
  let order = ref [] in
  let available = ref [] in
  for i = n - 1 downto 0 do
    if Dyn_state.available st i then available := i :: !available
  done;
  let latency_pick candidates =
    Engine.pick
      { Engine.direction = Dyn_state.Forward; mode = Engine.Winnowing; keys }
      ~annot ~st candidates
  in
  while not (Dyn_state.complete st) do
    let ready =
      List.filter (fun i -> st.Dyn_state.earliest_exec.(i) <= st.Dyn_state.time)
        !available
    in
    match ready with
    | [] ->
        let next =
          List.fold_left
            (fun acc i -> min acc st.Dyn_state.earliest_exec.(i))
            max_int !available
        in
        st.Dyn_state.time <- next
    | _ ->
        let pressure i = live_info.Liveness.born.(i) - live_info.Liveness.killed.(i) in
        let chosen =
          if !live + 1 >= limit then begin
            (* CSR mode: minimize net pressure first *)
            let best =
              List.fold_left (fun acc i -> min acc (pressure i)) max_int ready
            in
            latency_pick (List.filter (fun i -> pressure i = best) ready)
          end
          else latency_pick ready
        in
        Dyn_state.schedule st chosen ~at:st.Dyn_state.time;
        st.Dyn_state.time <- st.Dyn_state.time + 1;
        live := !live + live_info.Liveness.born.(chosen);
        if !live > !peak then peak := !live;
        live := !live - live_info.Liveness.killed.(chosen);
        order := chosen :: !order;
        available := List.filter (fun i -> i <> chosen) !available;
        (* coalesced arcs: a child becomes available only as its last
           parent, [chosen], issues, so it is never already listed *)
        Ds_dag.Dag.iter_succ dag chosen (fun dst _ _ ->
            if Dyn_state.available st dst then available := dst :: !available)
  done;
  let order = Array.of_list (List.rev !order) in
  { schedule = Schedule.make dag order; max_live = !peak }

(** Pressure high-water mark of an arbitrary instruction order (for
    comparing against the limit-aware schedule). *)
let max_live_of insns =
  let live_info = Liveness.compute ~live_out:(fun _ -> false) insns in
  let live = ref 0 and peak = ref 0 in
  Array.iteri
    (fun i _ ->
      live := !live + live_info.Liveness.born.(i);
      if !live > !peak then peak := !live;
      live := !live - live_info.Liveness.killed.(i))
    insns;
  !peak
