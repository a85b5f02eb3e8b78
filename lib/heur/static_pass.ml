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

(* Forward walk: parents are always visited before children because arcs
   go from lower to higher index.  [path] (the max path from the root)
   and [delay] (the max delay from the root, which is also the EST) are
   filled when non-empty. *)
let forward_pass dag ~path ~delay =
  let path_step acc src _ _ = Int.max acc (path.(src) + 1) in
  let delay_step acc src latency _ = Int.max acc (delay.(src) + latency) in
  let with_path = Array.length path > 0 and with_delay = Array.length delay > 0 in
  for j = 0 to Ds_dag.Dag.length dag - 1 do
    if with_path then path.(j) <- Ds_dag.Dag.fold_pred dag j path_step 0;
    if with_delay then delay.(j) <- Ds_dag.Dag.fold_pred dag j delay_step 0
  done

(* Backward walk: each node once all its children are final.  [path]
   (the max path to a leaf) is filled when non-empty, [delay] (the max
   delay to a leaf, at least the node's own execution time) always. *)
let backward_pass traversal dag ~exec_time ~path ~delay =
  let path_step acc dst _ _ = Int.max acc (path.(dst) + 1) in
  let delay_step acc dst latency _ = Int.max acc (delay.(dst) + latency) in
  let with_path = Array.length path > 0 in
  let visit i =
    if with_path then path.(i) <- Ds_dag.Dag.fold_succ dag i path_step 0;
    delay.(i) <- Ds_dag.Dag.fold_succ dag i delay_step exec_time.(i)
  in
  match traversal with
  | Reverse_walk ->
      for i = Ds_dag.Dag.length dag - 1 downto 0 do
        visit i
      done
  | Level_lists -> Level.iter_backward visit (Level.compute dag)

(* Descendant measures: population counts over reachability bit maps, as
   the paper recommends ("the #descendants is then merely the population
   count on the reachability bit map minus one").  Reuses maps a builder
   left on the DAG, else computes them. *)
let descendant_measures dag ~exec_time ~count ~sum =
  let with_count = Array.length count > 0 and with_sum = Array.length sum > 0 in
  match Ds_dag.Dag.reach_matrix dag with
  | Some m ->
      (* fast path: population counts and row scans straight off the
         builder's contiguous bit matrix, no per-node set materialization *)
      for i = 0 to Ds_util.Bitset.Matrix.rows m - 1 do
        if with_count then count.(i) <- Ds_util.Bitset.Matrix.row_cardinal m i - 1;
        if with_sum then begin
          let total = ref 0 in
          Ds_util.Bitset.Matrix.iter_row
            (fun d -> if d <> i then total := !total + exec_time.(d))
            m i;
          sum.(i) <- !total
        end
      done
  | None ->
      let maps = Ds_dag.Closure.descendants dag in
      Array.iteri
        (fun i map ->
          if with_count then count.(i) <- Ds_util.Bitset.cardinal map - 1;
          if with_sum then begin
            let total = ref 0 in
            Ds_util.Bitset.iter
              (fun d -> if d <> i then total := !total + exec_time.(d))
              map;
            sum.(i) <- !total
          end)
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

(* [h]'s column: [n] zeros when [columns] names [h], else empty. *)
let column columns n h = if List.mem h columns then Array.make n 0 else [||]

(* The pass: [columns] are the heuristics whose columns are allocated
   (the others are empty), [walks] which walks run and [requirements]
   which costly groups are computed into their allocated columns. *)
let run ~traversal ?live_out ~requirements ~walks ~columns dag =
  let n = Ds_dag.Dag.length dag in
  let model = Ds_dag.Dag.model dag in
  let exec_time = Array.make n 0 in
  for i = 0 to n - 1 do
    exec_time.(i) <- model.Latency.exec_time (Ds_dag.Dag.insn dag i)
  done;
  let max_path_from_root = column columns n Heuristic.Max_path_from_root in
  let max_delay_from_root = column columns n Heuristic.Max_delay_from_root in
  let est = column columns n Heuristic.Earliest_start_time in
  let max_path_to_leaf = column columns n Heuristic.Max_path_to_leaf in
  let max_delay_to_leaf = column columns n Heuristic.Max_delay_to_leaf in
  let lst = column columns n Heuristic.Latest_start_time in
  let slack = column columns n Heuristic.Slack in
  (* the max delay from the root is the EST: one walk fills both *)
  let from_root =
    if not walks.forward then [||]
    else if Array.length est > 0 then est
    else if Array.length max_delay_from_root > 0 then max_delay_from_root
    else if Array.length slack > 0 || not walks.backward then Array.make n 0
    else [||]
  in
  if walks.forward then begin
    forward_pass dag ~path:max_path_from_root ~delay:from_root;
    if from_root != max_delay_from_root && Array.length max_delay_from_root > 0 then
      Array.blit from_root 0 max_delay_from_root 0 n
  end;
  let to_leaf =
    if not walks.backward then [||]
    else if Array.length max_delay_to_leaf > 0 then max_delay_to_leaf
    else Array.make n 0
  in
  if walks.backward then
    backward_pass traversal dag ~exec_time ~path:max_path_to_leaf ~delay:to_leaf;
  (* the critical path ends at a virtual dummy leaf: the largest
     est + exec, which is also the largest max delay to a leaf *)
  let critical_path = ref 0 in
  if walks.backward then
    for i = 0 to n - 1 do
      critical_path := Int.max !critical_path to_leaf.(i)
    done
  else if walks.forward then
    for i = 0 to n - 1 do
      critical_path := Int.max !critical_path (from_root.(i) + exec_time.(i))
    done;
  let critical_path = !critical_path in
  (* LST seeds from the critical path: the latest start that still ends
     every path through the node by then *)
  if walks.backward then begin
    if Array.length lst > 0 then
      for i = 0 to n - 1 do
        lst.(i) <- critical_path - to_leaf.(i)
      done;
    if walks.forward && Array.length slack > 0 then
      for i = 0 to n - 1 do
        slack.(i) <- critical_path - to_leaf.(i) - from_root.(i)
      done
  end;
  let num_descendants = column columns n Heuristic.Num_descendants in
  let sum_exec_of_descendants = column columns n Heuristic.Sum_exec_of_descendants in
  if requirements.descendants then
    descendant_measures dag ~exec_time ~count:num_descendants
      ~sum:sum_exec_of_descendants;
  let registers_born, registers_killed, liveness =
    if requirements.registers then begin
      let insns = Ds_dag.Dag.insns dag in
      let regs =
        match live_out with
        | Some f -> Liveness.compute ~live_out:f insns
        | None -> Liveness.compute insns
      in
      let keep h a = if List.mem h columns then a else [||] in
      ( keep Heuristic.Registers_born regs.Liveness.born,
        keep Heuristic.Registers_killed regs.Liveness.killed,
        keep Heuristic.Liveness regs.Liveness.net )
    end
    else
      ( column columns n Heuristic.Registers_born,
        column columns n Heuristic.Registers_killed,
        column columns n Heuristic.Liveness )
  in
  { Annot.exec_time;
    max_path_to_leaf;
    max_delay_to_leaf;
    max_path_from_root;
    max_delay_from_root;
    est;
    lst;
    slack;
    num_descendants;
    sum_exec_of_descendants;
    registers_born;
    registers_killed;
    liveness;
    critical_path_length = critical_path }

(** Compute the static annotation set for a DAG: both walks.  [live_out]
    feeds the register-usage heuristics (default: every register escapes
    the block); [requirements] trims the costly annotation groups
    (default: compute everything). *)
let compute ?(traversal = Reverse_walk) ?live_out
    ?(requirements = all_requirements) dag =
  run ~traversal ?live_out ~requirements
    ~walks:{ forward = true; backward = true }
    ~columns:Heuristic.all_26 dag

(** [compute_for heuristics dag] computes only what the given heuristics
    need — what a scheduler's intermediate pass would actually run: the
    walks their calculation passes name, the costly groups they read,
    and only the columns they read. *)
let compute_for ?(traversal = Reverse_walk) ?live_out heuristics dag =
  run ~traversal ?live_out ~requirements:(requirements_of heuristics)
    ~walks:(walks_of heuristics)
    ~columns:heuristics dag

(** Only the backward-pass annotations (used when timing the traversal
    strategies in isolation, §4). *)
let backward_only ?(traversal = Reverse_walk) dag =
  run ~traversal ~requirements:{ descendants = false; registers = false }
    ~walks:{ forward = false; backward = true }
    ~columns:Heuristic.[ Max_path_to_leaf; Max_delay_to_leaf; Latest_start_time ]
    dag
