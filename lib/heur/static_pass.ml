(** The intermediate heuristic calculation step (paper §4).

    Computes every static annotation left undetermined after DAG
    construction.  Forward-pass heuristics (max path/delay from root, EST)
    are computed by a forward walk; backward-pass heuristics (max
    path/delay to leaf, LST, slack, descendant measures) by a backward
    walk.  The backward walk can traverse either a reverse walk of the
    instruction list or the level lists of [Level] — the paper's
    conclusion 4 is that the two are equivalent in cost and result, which
    the bench measures and a property test checks. *)

open Ds_machine

type traversal = Reverse_walk | Level_lists

(* Forward-pass annotations: parents are always visited before children
   because arcs go from lower to higher index. *)
let forward_pass dag (annot : Annot.t) =
  let n = Ds_dag.Dag.length dag in
  for j = 0 to n - 1 do
    Ds_dag.Dag.iter_pred dag j (fun src latency _ ->
        annot.max_path_from_root.(j) <-
          Int.max annot.max_path_from_root.(j) (annot.max_path_from_root.(src) + 1);
        annot.max_delay_from_root.(j) <-
          Int.max annot.max_delay_from_root.(j)
            (annot.max_delay_from_root.(src) + latency);
        annot.est.(j) <- Int.max annot.est.(j) (annot.est.(src) + latency))
  done

(* Backward-pass annotations for one node, assuming all its children are
   already final. *)
let backward_visit dag (annot : Annot.t) ~critical_path i =
  let exec = annot.exec_time.(i) in
  annot.max_delay_to_leaf.(i) <- exec;
  annot.lst.(i) <- critical_path - exec;
  Ds_dag.Dag.iter_succ dag i (fun dst latency _ ->
      annot.max_path_to_leaf.(i) <-
        Int.max annot.max_path_to_leaf.(i) (annot.max_path_to_leaf.(dst) + 1);
      annot.max_delay_to_leaf.(i) <-
        Int.max annot.max_delay_to_leaf.(i) (annot.max_delay_to_leaf.(dst) + latency);
      annot.lst.(i) <- Int.min annot.lst.(i) (annot.lst.(dst) - latency));
  annot.slack.(i) <- annot.lst.(i) - annot.est.(i)

(* Descendant measures: population counts over reachability bit maps, as
   the paper recommends ("the #descendants is then merely the population
   count on the reachability bit map minus one").  Reuses maps a builder
   left on the DAG, else computes them. *)
let descendant_measures dag (annot : Annot.t) =
  match Ds_dag.Dag.reach_matrix dag with
  | Some m ->
      (* fast path: population counts and row scans straight off the
         builder's contiguous bit matrix, no per-node set materialization *)
      for i = 0 to Ds_util.Bitset.Matrix.rows m - 1 do
        annot.num_descendants.(i) <- Ds_util.Bitset.Matrix.row_cardinal m i - 1;
        let sum = ref 0 in
        Ds_util.Bitset.Matrix.iter_row
          (fun d -> if d <> i then sum := !sum + annot.exec_time.(d))
          m i;
        annot.sum_exec_of_descendants.(i) <- !sum
      done
  | None ->
      let maps = Ds_dag.Closure.descendants dag in
      Array.iteri
        (fun i map ->
          annot.num_descendants.(i) <- Ds_util.Bitset.cardinal map - 1;
          let sum = ref 0 in
          Ds_util.Bitset.iter
            (fun d -> if d <> i then sum := !sum + annot.exec_time.(d))
            map;
          annot.sum_exec_of_descendants.(i) <- !sum)
        maps

(** Which optional (and costly) annotation groups to compute.  The
    path/delay/EST/LST/slack annotations are always computed; descendant
    measures (population counts over reachability maps, O(n²) bits) and
    register-usage measures are only needed by algorithms that rank with
    them. *)
type requirements = { descendants : bool; registers : bool }

let all_requirements = { descendants = true; registers = true }

(** The requirements implied by a set of heuristics. *)
let requirements_of heuristics =
  List.fold_left
    (fun acc (h : Heuristic.t) ->
      match h with
      | Heuristic.Num_descendants | Heuristic.Sum_exec_of_descendants ->
          { acc with descendants = true }
      | Heuristic.Registers_born | Heuristic.Registers_killed
      | Heuristic.Liveness | Heuristic.Birthing_instruction ->
          { acc with registers = true }
      | _ -> acc)
    { descendants = false; registers = false }
    heuristics

(** Compute the static annotation set for a DAG.  [live_out] feeds the
    register-usage heuristics (default: every register escapes the
    block); [requirements] trims the costly annotation groups (default:
    compute everything). *)
let compute ?(traversal = Reverse_walk) ?live_out
    ?(requirements = all_requirements) dag =
  let n = Ds_dag.Dag.length dag in
  let annot = Annot.create n in
  let model = Ds_dag.Dag.model dag in
  for i = 0 to n - 1 do
    annot.exec_time.(i) <- model.Latency.exec_time (Ds_dag.Dag.insn dag i)
  done;
  forward_pass dag annot;
  (* LST seeds from the critical path length through a virtual dummy leaf *)
  let critical_path = ref 0 in
  for i = 0 to n - 1 do
    critical_path := Int.max !critical_path (annot.est.(i) + annot.exec_time.(i))
  done;
  let critical_path = !critical_path in
  (match traversal with
  | Reverse_walk ->
      for i = n - 1 downto 0 do
        backward_visit dag annot ~critical_path i
      done
  | Level_lists ->
      let levels = Level.compute dag in
      Level.iter_backward (backward_visit dag annot ~critical_path) levels);
  if requirements.descendants then descendant_measures dag annot;
  if requirements.registers then begin
    let regs =
      match live_out with
      | Some f ->
          Liveness.compute ~live_out:f (Array.init n (Ds_dag.Dag.insn dag))
      | None -> Liveness.compute (Array.init n (Ds_dag.Dag.insn dag))
    in
    Array.blit regs.Liveness.born 0 annot.registers_born 0 n;
    Array.blit regs.Liveness.killed 0 annot.registers_killed 0 n;
    Array.blit regs.Liveness.net 0 annot.liveness 0 n
  end;
  Annot.with_critical_path annot critical_path

(** [compute_for heuristics dag] computes only what the given heuristics
    need — what a scheduler's intermediate pass would actually run. *)
let compute_for ?traversal ?live_out heuristics dag =
  compute ?traversal ?live_out ~requirements:(requirements_of heuristics) dag

(** Only the backward-pass annotations (used when timing the traversal
    strategies in isolation, §4). *)
let backward_only ?(traversal = Reverse_walk) dag =
  let n = Ds_dag.Dag.length dag in
  let annot = Annot.create n in
  let model = Ds_dag.Dag.model dag in
  for i = 0 to n - 1 do
    annot.exec_time.(i) <- model.Latency.exec_time (Ds_dag.Dag.insn dag i)
  done;
  (match traversal with
  | Reverse_walk ->
      for i = n - 1 downto 0 do
        backward_visit dag annot ~critical_path:0 i
      done
  | Level_lists ->
      let levels = Level.compute dag in
      Level.iter_backward (backward_visit dag annot ~critical_path:0) levels);
  annot
