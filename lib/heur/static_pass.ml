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
   filled when non-empty.  Arcs are read through the DAG's cursor, so
   the walk allocates nothing. *)
let forward_pass dag ~path ~delay =
  let with_path = Array.length path > 0 and with_delay = Array.length delay > 0 in
  for j = 0 to Ds_dag.Dag.length dag - 1 do
    let p = ref 0 and d = ref 0 in
    let a = ref (Ds_dag.Dag.pred_first dag j) in
    while !a >= 0 do
      let src = Ds_dag.Dag.arc_src dag !a in
      if with_path then p := Int.max !p (path.(src) + 1);
      if with_delay then d := Int.max !d (delay.(src) + Ds_dag.Dag.arc_latency dag !a);
      a := Ds_dag.Dag.pred_next dag !a
    done;
    if with_path then path.(j) <- !p;
    if with_delay then delay.(j) <- !d
  done

(* One node of the backward walk, once all its children are final:
   [path] (the max path to a leaf) is filled when non-empty, [delay]
   (the max delay to a leaf, at least the node's own execution time)
   always. *)
let backward_visit dag ~exec_time ~path ~delay i =
  let with_path = Array.length path > 0 in
  let p = ref 0 and d = ref exec_time.(i) in
  let a = ref (Ds_dag.Dag.succ_first dag i) in
  while !a >= 0 do
    let dst = Ds_dag.Dag.arc_dst dag !a in
    if with_path then p := Int.max !p (path.(dst) + 1);
    d := Int.max !d (delay.(dst) + Ds_dag.Dag.arc_latency dag !a);
    a := Ds_dag.Dag.succ_next dag !a
  done;
  if with_path then path.(i) <- !p;
  delay.(i) <- !d

let backward_pass traversal dag ~exec_time ~path ~delay =
  match traversal with
  | Reverse_walk ->
      for i = Ds_dag.Dag.length dag - 1 downto 0 do
        backward_visit dag ~exec_time ~path ~delay i
      done
  | Level_lists ->
      Level.iter_backward
        (backward_visit dag ~exec_time ~path ~delay)
        (Level.compute dag)

(* Descendant measures: population counts over reachability bit maps, as
   the paper recommends ("the #descendants is then merely the population
   count on the reachability bit map minus one").  Reads the maps a
   builder left on the DAG, else runs the reach pass. *)
let descendant_measures dag ~exec_time ~count ~sum =
  let with_count = Array.length count > 0 and with_sum = Array.length sum > 0 in
  let m =
    match Ds_dag.Dag.reach_matrix dag with
    | Some m -> m
    | None -> Ds_dag.Closure.descendants dag
  in
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

(* What one call of the pass computes, resolved once from its
   heuristics: the walks Table 1's [F], [B] and [FB] name, the costly
   groups, and one flag per column allocated (the others are empty).
   The flags are bits of an int, so resolving allocates nothing. *)
module Sel = struct
  let forward = 0x1
  let backward = 0x2
  let descendants = 0x4
  let registers = 0x8
  let path_from_root = 0x10
  let delay_from_root = 0x20
  let est = 0x40
  let path_to_leaf = 0x80
  let delay_to_leaf = 0x100
  let lst = 0x200
  let slack = 0x400
  let num_descendants = 0x800
  let sum_exec = 0x1000
  let born = 0x2000
  let killed = 0x4000
  let liveness = 0x8000
  let every_column = 0xfff0
end

let has sel flag = sel land flag <> 0

(* [h]'s walks, group and column *)
let flags (h : Heuristic.t) =
  (match Heuristic.calc_pass h with
  | Heuristic.F -> Sel.forward
  | Heuristic.B -> Sel.backward
  | Heuristic.FB -> Sel.forward lor Sel.backward
  | Heuristic.A | Heuristic.V -> 0)
  lor
  match h with
  | Heuristic.Max_path_from_root -> Sel.path_from_root
  | Heuristic.Max_delay_from_root -> Sel.delay_from_root
  | Heuristic.Earliest_start_time -> Sel.est
  | Heuristic.Max_path_to_leaf -> Sel.path_to_leaf
  | Heuristic.Max_delay_to_leaf -> Sel.delay_to_leaf
  | Heuristic.Latest_start_time -> Sel.lst
  | Heuristic.Slack -> Sel.slack
  | Heuristic.Num_descendants -> Sel.descendants lor Sel.num_descendants
  | Heuristic.Sum_exec_of_descendants -> Sel.descendants lor Sel.sum_exec
  (* [Birthing_instruction] reads the DAG's RAW arcs, not these *)
  | Heuristic.Registers_born -> Sel.registers lor Sel.born
  | Heuristic.Registers_killed -> Sel.registers lor Sel.killed
  | Heuristic.Liveness -> Sel.registers lor Sel.liveness
  | Heuristic.Interlock_with_previous | Heuristic.Earliest_execution_time
  | Heuristic.Interlock_with_child | Heuristic.Execution_time
  | Heuristic.Alternate_type | Heuristic.Fp_unit_busy | Heuristic.Num_children
  | Heuristic.Delays_to_children _ | Heuristic.Num_single_parent_children
  | Heuristic.Sum_delays_to_single_parent_children
  | Heuristic.Num_uncovered_children | Heuristic.Num_parents
  | Heuristic.Delays_from_parents _ | Heuristic.Birthing_instruction
  | Heuristic.Original_order -> 0

(* The selection a set of heuristics names. *)
let rec select_from sel = function
  | [] -> sel
  | h :: rest -> select_from (sel lor flags h) rest

let select heuristics = select_from 0 heuristics

(* The column [flag] names: [n] zeros when [sel] has it, else empty;
   [keep] is [a] when it has it. *)
let column sel flag n = if has sel flag then Array.make n 0 else [||]
let keep sel flag a = if has sel flag then a else [||]

(* The pass: [sel] names the walks that run, the costly groups computed
   into their allocated columns, and the columns allocated. *)
let run ~traversal ?live_out sel dag =
  let n = Ds_dag.Dag.length dag in
  let model = Ds_dag.Dag.model dag in
  let exec_time = Array.make n 0 in
  for i = 0 to n - 1 do
    exec_time.(i) <- model.Latency.exec_time (Ds_dag.Dag.insn dag i)
  done;
  let max_path_from_root = column sel Sel.path_from_root n in
  let max_delay_from_root = column sel Sel.delay_from_root n in
  let est = column sel Sel.est n in
  let max_path_to_leaf = column sel Sel.path_to_leaf n in
  let max_delay_to_leaf = column sel Sel.delay_to_leaf n in
  let lst = column sel Sel.lst n in
  let slack = column sel Sel.slack n in
  (* the max delay from the root is the EST: one walk fills both *)
  let from_root =
    if not (has sel Sel.forward) then [||]
    else if Array.length est > 0 then est
    else if Array.length max_delay_from_root > 0 then max_delay_from_root
    else if Array.length slack > 0 || not (has sel Sel.backward) then Array.make n 0
    else [||]
  in
  if has sel Sel.forward then begin
    forward_pass dag ~path:max_path_from_root ~delay:from_root;
    if from_root != max_delay_from_root && Array.length max_delay_from_root > 0 then
      Array.blit from_root 0 max_delay_from_root 0 n
  end;
  let to_leaf =
    if not (has sel Sel.backward) then [||]
    else if Array.length max_delay_to_leaf > 0 then max_delay_to_leaf
    else Array.make n 0
  in
  if has sel Sel.backward then
    backward_pass traversal dag ~exec_time ~path:max_path_to_leaf ~delay:to_leaf;
  (* the critical path ends at a virtual dummy leaf: the largest
     est + exec, which is also the largest max delay to a leaf *)
  let critical_path = ref 0 in
  if has sel Sel.backward then
    for i = 0 to n - 1 do
      critical_path := Int.max !critical_path to_leaf.(i)
    done
  else if has sel Sel.forward then
    for i = 0 to n - 1 do
      critical_path := Int.max !critical_path (from_root.(i) + exec_time.(i))
    done;
  let critical_path = !critical_path in
  (* LST seeds from the critical path: the latest start that still ends
     every path through the node by then *)
  if has sel Sel.backward then begin
    if Array.length lst > 0 then
      for i = 0 to n - 1 do
        lst.(i) <- critical_path - to_leaf.(i)
      done;
    if has sel Sel.forward && Array.length slack > 0 then
      for i = 0 to n - 1 do
        slack.(i) <- critical_path - to_leaf.(i) - from_root.(i)
      done
  end;
  let num_descendants = column sel Sel.num_descendants n in
  let sum_exec_of_descendants = column sel Sel.sum_exec n in
  if has sel Sel.descendants then
    descendant_measures dag ~exec_time ~count:num_descendants
      ~sum:sum_exec_of_descendants;
  let registers_born, registers_killed, liveness =
    if has sel Sel.registers then begin
      let insns = Ds_dag.Dag.insns dag in
      let regs =
        match live_out with
        | Some f -> Liveness.compute ~live_out:f insns
        | None -> Liveness.compute insns
      in
      ( keep sel Sel.born regs.Liveness.born,
        keep sel Sel.killed regs.Liveness.killed,
        keep sel Sel.liveness regs.Liveness.net )
    end
    else
      ( column sel Sel.born n,
        column sel Sel.killed n,
        column sel Sel.liveness n )
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

(** Compute the static annotation set for a DAG: both walks and every
    column.  [live_out] feeds the register-usage heuristics (default:
    every register escapes the block). *)
let compute ?(traversal = Reverse_walk) ?live_out dag =
  run ~traversal ?live_out
    Sel.(forward lor backward lor every_column lor descendants lor registers)
    dag

(** [compute_for heuristics dag] computes only what the given heuristics
    need — what a scheduler's intermediate pass would actually run: the
    walks their calculation passes name, the costly groups they read,
    and only the columns they read. *)
let compute_for ?(traversal = Reverse_walk) ?live_out heuristics dag =
  run ~traversal ?live_out (select heuristics) dag

(** Only the backward-pass annotations (used when timing the traversal
    strategies in isolation, §4). *)
let backward_only ?(traversal = Reverse_walk) dag =
  run ~traversal
    (select Heuristic.[ Max_path_to_leaf; Max_delay_to_leaf; Latest_start_time ])
    dag
