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
let backward_visit dag (annot : Annot.t) i =
  annot.max_delay_to_leaf.(i) <- annot.exec_time.(i);
  Ds_dag.Dag.iter_succ dag i (fun dst latency _ ->
      annot.max_path_to_leaf.(i) <-
        Int.max annot.max_path_to_leaf.(i) (annot.max_path_to_leaf.(dst) + 1);
      annot.max_delay_to_leaf.(i) <-
        Int.max annot.max_delay_to_leaf.(i) (annot.max_delay_to_leaf.(dst) + latency))

let backward_pass traversal dag annot =
  match traversal with
  | Reverse_walk ->
      for i = Ds_dag.Dag.length dag - 1 downto 0 do
        backward_visit dag annot i
      done
  | Level_lists -> Level.iter_backward (backward_visit dag annot) (Level.compute dag)

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

(** Which optional (and costly) annotation groups to compute: descendant
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
      (* [Birthing_instruction] reads the DAG's RAW arcs, not these *)
      | Heuristic.Registers_born | Heuristic.Registers_killed
      | Heuristic.Liveness ->
          { acc with registers = true }
      | _ -> acc)
    { descendants = false; registers = false }
    heuristics

(* The walks a set of heuristics names (Table 1's [F], [B] and [FB]). *)
type walks = { forward : bool; backward : bool }

let walks_of heuristics =
  List.fold_left
    (fun acc h ->
      match Heuristic.calc_pass h with
      | Heuristic.F -> { acc with forward = true }
      | Heuristic.B -> { acc with backward = true }
      | Heuristic.FB -> { forward = true; backward = true }
      | Heuristic.A | Heuristic.V -> acc)
    { forward = false; backward = false }
    heuristics

let run ~traversal ?live_out ~requirements ~walks dag =
  let n = Ds_dag.Dag.length dag in
  let annot = Annot.create n in
  let model = Ds_dag.Dag.model dag in
  for i = 0 to n - 1 do
    annot.exec_time.(i) <- model.Latency.exec_time (Ds_dag.Dag.insn dag i)
  done;
  if walks.forward then forward_pass dag annot;
  if walks.backward then backward_pass traversal dag annot;
  (* the critical path ends at a virtual dummy leaf: the largest
     est + exec, which is also the largest max delay to a leaf *)
  let critical_path =
    if walks.backward then Array.fold_left Int.max 0 annot.max_delay_to_leaf
    else if walks.forward then begin
      let cp = ref 0 in
      for i = 0 to n - 1 do
        cp := Int.max !cp (annot.est.(i) + annot.exec_time.(i))
      done;
      !cp
    end
    else 0
  in
  (* LST seeds from the critical path: the latest start that still ends
     every path through the node by then *)
  if walks.backward then
    for i = 0 to n - 1 do
      annot.lst.(i) <- critical_path - annot.max_delay_to_leaf.(i);
      if walks.forward then annot.slack.(i) <- annot.lst.(i) - annot.est.(i)
    done;
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

(** Compute the static annotation set for a DAG: both walks.  [live_out]
    feeds the register-usage heuristics (default: every register escapes
    the block); [requirements] trims the costly annotation groups
    (default: compute everything). *)
let compute ?(traversal = Reverse_walk) ?live_out
    ?(requirements = all_requirements) dag =
  run ~traversal ?live_out ~requirements
    ~walks:{ forward = true; backward = true } dag

(** [compute_for heuristics dag] computes only what the given heuristics
    need — what a scheduler's intermediate pass would actually run: the
    walks their calculation passes name, and the costly groups they
    read. *)
let compute_for ?(traversal = Reverse_walk) ?live_out heuristics dag =
  run ~traversal ?live_out ~requirements:(requirements_of heuristics)
    ~walks:(walks_of heuristics) dag

(** Only the backward-pass annotations (used when timing the traversal
    strategies in isolation, §4). *)
let backward_only ?(traversal = Reverse_walk) dag =
  run ~traversal ~requirements:{ descendants = false; registers = false }
    ~walks:{ forward = false; backward = true } dag
