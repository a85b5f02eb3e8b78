(** Heuristic tests: the Table-1 taxonomy, static annotation passes on
    hand-computed DAGs, level lists vs reverse walk, register liveness,
    and the dynamic scheduler-state heuristics. *)

open Dagsched
open Helpers

(* ------------------------------------------------------------------ *)
(* taxonomy (Table 1) *)

let test_26_heuristics () =
  check_int "exactly 26 heuristics" 26 (List.length Heuristic.all_26)

let test_category_counts () =
  (* Table 1 row counts: stall 4, class 2, critical path 7, uncovering 5,
     structural 4, register usage 4 *)
  let count c =
    List.length (List.filter (fun h -> Heuristic.category h = c) Heuristic.all_26)
  in
  check_int "stall behavior" 4 (count Heuristic.Stall_behavior);
  check_int "instruction class" 2 (count Heuristic.Instruction_class);
  check_int "critical path" 7 (count Heuristic.Critical_path);
  check_int "uncovering" 5 (count Heuristic.Uncovering);
  check_int "structural" 4 (count Heuristic.Structural);
  check_int "register usage" 4 (count Heuristic.Register_usage)

let test_table1_passes () =
  let check_pass h p =
    check_bool (Heuristic.to_string h) true (Heuristic.calc_pass h = p)
  in
  check_pass Heuristic.Interlock_with_previous Heuristic.V;
  check_pass Heuristic.Earliest_execution_time Heuristic.V;
  check_pass Heuristic.Interlock_with_child Heuristic.A;
  check_pass Heuristic.Execution_time Heuristic.A;
  check_pass Heuristic.Alternate_type Heuristic.V;
  check_pass Heuristic.Fp_unit_busy Heuristic.V;
  check_pass Heuristic.Max_path_to_leaf Heuristic.B;
  check_pass Heuristic.Max_delay_to_leaf Heuristic.B;
  check_pass Heuristic.Max_path_from_root Heuristic.F;
  check_pass Heuristic.Max_delay_from_root Heuristic.F;
  check_pass Heuristic.Earliest_start_time Heuristic.F;
  check_pass Heuristic.Latest_start_time Heuristic.B;
  check_pass Heuristic.Slack Heuristic.FB;
  check_pass Heuristic.Num_children Heuristic.A;
  check_pass Heuristic.Num_single_parent_children Heuristic.V;
  check_pass Heuristic.Num_uncovered_children Heuristic.V;
  check_pass Heuristic.Num_parents Heuristic.A;
  check_pass Heuristic.Num_descendants Heuristic.B;
  check_pass Heuristic.Registers_born Heuristic.A;
  check_pass Heuristic.Birthing_instruction Heuristic.A

let test_table1_transitive_markers () =
  (* the ** rows of Table 1 *)
  let sensitive =
    List.filter Heuristic.transitive_sensitive Heuristic.all_26
  in
  check_int "nine ** rows" 9 (List.length sensitive);
  check_bool "EET marked" true
    (Heuristic.transitive_sensitive Heuristic.Earliest_execution_time);
  check_bool "#children marked" true
    (Heuristic.transitive_sensitive Heuristic.Num_children);
  check_bool "slack marked" true (Heuristic.transitive_sensitive Heuristic.Slack);
  check_bool "max path to leaf NOT marked" false
    (Heuristic.transitive_sensitive Heuristic.Max_path_to_leaf)

let test_dynamic_classification () =
  check_bool "EET dynamic" true (Heuristic.is_dynamic Heuristic.Earliest_execution_time);
  check_bool "exec time static" false (Heuristic.is_dynamic Heuristic.Execution_time)

(* ------------------------------------------------------------------ *)
(* static pass on a hand-computed DAG *)

(* ld (lat 2) -> add -> st, plus an independent add
     0: ld [%fp - 8], %o1        est 0
     1: add %o1, 1, %o2          est 2 (RAW 2)
     2: st %o2, [%fp - 16]       est 3 (RAW 1)
     3: add %o3, 1, %o4          est 0, independent *)
let hand_asm = "ld [%fp - 8], %o1\nadd %o1, 1, %o2\nst %o2, [%fp - 16]\nadd %o3, 1, %o4"

let hand_annot ?traversal () =
  Static_pass.compute ?traversal (dag_of_asm ~alg:Builder.Table_forward hand_asm)

let test_est () =
  let a = hand_annot () in
  Alcotest.(check (array int)) "EST" [| 0; 2; 3; 0 |] a.Annot.est

let test_paths () =
  let a = hand_annot () in
  Alcotest.(check (array int)) "max path to leaf" [| 2; 1; 0; 0 |] a.Annot.max_path_to_leaf;
  Alcotest.(check (array int)) "max path from root" [| 0; 1; 2; 0 |] a.Annot.max_path_from_root;
  (* delay to leaf includes the leaf's execution time *)
  Alcotest.(check (array int)) "max delay to leaf" [| 4; 2; 1; 1 |] a.Annot.max_delay_to_leaf;
  Alcotest.(check (array int)) "max delay from root" [| 0; 2; 3; 0 |] a.Annot.max_delay_from_root

let test_lst_slack () =
  let a = hand_annot () in
  check_int "critical path" 4 a.Annot.critical_path_length;
  (* chain nodes have zero slack; the independent add has cp - 1 *)
  Alcotest.(check (array int)) "slack" [| 0; 0; 0; 3 |] a.Annot.slack;
  Array.iteri
    (fun i lst -> check_bool "LST >= EST" true (lst >= a.Annot.est.(i)))
    a.Annot.lst

let test_descendant_measures () =
  let a = hand_annot () in
  Alcotest.(check (array int)) "#descendants" [| 2; 1; 0; 0 |] a.Annot.num_descendants;
  (* node 0's descendants: add (1) + st (1) = 2 *)
  check_int "sum exec of descendants" 2 a.Annot.sum_exec_of_descendants.(0)

let test_level_lists_match_reverse_walk () =
  let a = hand_annot ~traversal:Static_pass.Reverse_walk () in
  let b = hand_annot ~traversal:Static_pass.Level_lists () in
  Alcotest.(check (array int)) "path to leaf" a.Annot.max_path_to_leaf b.Annot.max_path_to_leaf;
  Alcotest.(check (array int)) "delay to leaf" a.Annot.max_delay_to_leaf b.Annot.max_delay_to_leaf;
  Alcotest.(check (array int)) "lst" a.Annot.lst b.Annot.lst;
  Alcotest.(check (array int)) "slack" a.Annot.slack b.Annot.slack

let test_levels () =
  let dag = dag_of_asm hand_asm in
  let levels = Level.compute dag in
  Alcotest.(check (array int)) "levels" [| 0; 1; 2; 0 |] levels.Level.level_of;
  check_int "max level" 2 levels.Level.max_level;
  (* backward iteration visits children before parents *)
  let seen = ref [] in
  Level.iter_backward (fun i -> seen := i :: !seen) levels;
  let visit_order = List.rev !seen in
  let pos i =
    let rec find k = function
      | [] -> -1
      | x :: r -> if x = i then k else find (k + 1) r
    in
    find 0 visit_order
  in
  check_bool "child before parent" true (pos 2 < pos 1 && pos 1 < pos 0)

(* ------------------------------------------------------------------ *)
(* liveness *)

let test_registers_born_killed () =
  let insns = Array.of_list (parse "ld [%fp - 8], %o1\nadd %o1, 1, %o2\nst %o2, [%fp - 16]") in
  (* nothing live out: o1 dies at the add, o2 dies at the store — and the
     live-in %fp base register dies at its last use (the store) too *)
  let r = Liveness.compute ~live_out:(fun _ -> false) insns in
  Alcotest.(check (array int)) "born" [| 1; 1; 0 |] r.Liveness.born;
  Alcotest.(check (array int)) "killed" [| 0; 1; 2 |] r.Liveness.killed;
  Alcotest.(check (array int)) "net" [| 1; 0; -2 |] r.Liveness.net

let test_liveness_live_out () =
  let insns = Array.of_list (parse "mov 1, %o1\nadd %o1, 1, %o2") in
  (* all live out: the add does not kill o1's value only if o1 escapes *)
  let all = Liveness.compute ~live_out:(fun _ -> true) insns in
  check_int "o1 not killed when live out" 0 all.Liveness.killed.(1);
  let none = Liveness.compute ~live_out:(fun _ -> false) insns in
  check_int "o1 killed when dead out" 1 none.Liveness.killed.(1)

let test_dead_def_not_born () =
  let insns = Array.of_list (parse "mov 1, %o1\nmov 2, %o1\nst %o1, [%fp - 8]") in
  let r = Liveness.compute ~live_out:(fun _ -> false) insns in
  check_int "dead def births nothing" 0 r.Liveness.born.(0);
  check_int "live def births" 1 r.Liveness.born.(1)

(* ------------------------------------------------------------------ *)
(* dynamic heuristics *)

let test_earliest_execution_time_updates () =
  let dag = dag_of_asm "ld [%fp - 8], %o1\nadd %o1, 1, %o2" in
  let st = Dyn_state.create dag Dyn_state.Forward in
  check_int "initially 0" 0 st.Dyn_state.earliest_exec.(1);
  Dyn_state.schedule st 0 ~at:0;
  check_int "updated by arc delay" 2 st.Dyn_state.earliest_exec.(1)

let test_interlock_with_previous () =
  let dag = dag_of_asm "ld [%fp - 8], %o1\nadd %o1, 1, %o2\nadd %o3, 1, %o4" in
  let st = Dyn_state.create dag Dyn_state.Forward in
  Dyn_state.schedule st 0 ~at:0;
  st.Dyn_state.time <- 1;
  check_int "dependent candidate interlocks" 1 (Dynamic.interlock_with_previous st 1);
  check_int "independent does not" 0 (Dynamic.interlock_with_previous st 2)

let test_uncovering_chain () =
  (* two children, one shared with another parent *)
  let dag =
    dag_of_asm "mov 1, %o1\nmov 2, %o2\nadd %o1, 1, %o3\nadd %o1, %o2, %o4"
  in
  let st = Dyn_state.create dag Dyn_state.Forward in
  (* node 0's children: 2 (single parent) and 3 (two parents) *)
  check_int "#children" 2 (Dag.n_children dag 0);
  check_int "#single-parent children" 1 (Dynamic.num_single_parent_children st 0);
  check_int "#uncovered" 1 (Dynamic.num_uncovered_children st 0);
  (* after scheduling node 1, node 3 becomes single-parent w.r.t. node 0 *)
  Dyn_state.schedule st 1 ~at:0;
  check_int "#single-parent now 2" 2 (Dynamic.num_single_parent_children st 0)

let test_uncovered_respects_delay () =
  (* a child over a 2-cycle arc is not uncovered *)
  let dag = dag_of_asm "ld [%fp - 8], %o1\nadd %o1, 1, %o2" in
  let st = Dyn_state.create dag Dyn_state.Forward in
  check_int "not uncovered by long delay" 0 (Dynamic.num_uncovered_children st 0);
  check_int "but is a single-parent child" 1 (Dynamic.num_single_parent_children st 0)

let test_uncovering_invariant () =
  (* #uncovered <= #single-parent <= #children at every step *)
  let b = random_block 90210 in
  let dag = Builder.build Builder.Table_forward Opts.default b in
  let st = Dyn_state.create dag Dyn_state.Forward in
  for i = 0 to Dag.length dag - 1 do
    let u = Dynamic.num_uncovered_children st i in
    let s = Dynamic.num_single_parent_children st i in
    let c = Dag.n_children dag i in
    check_bool "u <= s" true (u <= s);
    check_bool "s <= c" true (s <= c)
  done

let test_sum_delays_single_parent () =
  let dag = dag_of_asm "ld [%fp - 8], %o1\nadd %o1, 1, %o2" in
  let st = Dyn_state.create dag Dyn_state.Forward in
  check_int "sum of delays" 2 (Dynamic.sum_delays_to_single_parent_children st 0)

let test_alternate_type () =
  let dag = dag_of_asm "add %o1, 1, %o2\nfaddd %f0, %f2, %f4\nsub %o3, 1, %o4" in
  let st = Dyn_state.create dag Dyn_state.Forward in
  check_int "no last: 0" 0 (Dynamic.alternate_type st 1);
  Dyn_state.schedule st 0 ~at:0;
  check_int "fp differs from int" 1 (Dynamic.alternate_type st 1);
  check_int "int same as int" 0 (Dynamic.alternate_type st 2)

let test_fp_unit_busy () =
  let dag =
    Builder.build Builder.Table_forward
      { Opts.default with Opts.model = Latency.deep_fp }
      (block_of_asm "fdivd %f0, %f2, %f4\nfdivd %f6, %f8, %f10")
  in
  let st = Dyn_state.create dag Dyn_state.Forward in
  check_int "unit free initially" 0 (Dynamic.fp_unit_busy st 0);
  Dyn_state.schedule st 0 ~at:0;
  st.Dyn_state.time <- 1;
  check_bool "second divide sees busy unit" true (Dynamic.fp_unit_busy st 1 > 0)

let test_birthing () =
  (* backward pass: RAW parents of the last scheduled node get the boost *)
  let dag = dag_of_asm "mov 1, %o1\nadd %o1, 1, %o2\nmov 3, %o3" in
  let st = Dyn_state.create dag Dyn_state.Backward in
  Dyn_state.schedule st 1 ~at:0;
  check_int "RAW parent boosted" 1 (Dynamic.birthing_instruction st 0);
  check_int "unrelated not boosted" 0 (Dynamic.birthing_instruction st 2)

let test_evaluate_dispatch () =
  let dag = dag_of_asm hand_asm in
  let annot = Static_pass.compute dag in
  let st = Dyn_state.create dag Dyn_state.Forward in
  List.iter
    (fun h ->
      (* every heuristic must evaluate without raising *)
      ignore (Evaluate.value h ~annot ~st 0))
    (Heuristic.Original_order :: Heuristic.all_26);
  check_int "original order is the index" 3
    (Evaluate.value Heuristic.Original_order ~annot ~st 3);
  check_int "exec time via evaluate" 2
    (Evaluate.value Heuristic.Execution_time ~annot ~st 0)

(* ------------------------------------------------------------------ *)
(* Table 1 completeness audit: every heuristic reachable through
   [Evaluate.value] is compared against an independently written slow
   specification — memoized recursion over the arc lists instead of the
   production sweeps and counters — on reference blocks, at every step of
   a partial schedule so the dynamic heuristics are exercised against
   live state. *)

module Slow = struct
  let memo n f =
    let cache = Array.make n None in
    let rec g i =
      match cache.(i) with
      | Some v -> v
      | None ->
          let v = f g i in
          cache.(i) <- Some v;
          v
    in
    g

  type t = {
    exec : int -> int;
    path_to_leaf : int -> int;
    delay_to_leaf : int -> int;
    path_from_root : int -> int;
    delay_from_root : int -> int;
    est : int -> int;
    lst : int -> int;
    descendants : int -> int list;
    regs : Liveness.result;
    succs : Dag.arc list array;
    preds : Dag.arc list array;
  }

  let make dag =
    let n = Dag.length dag in
    let model = Dag.model dag in
    let exec i = model.Latency.exec_time (Dag.insn dag i) in
    let succs, preds = adjacency dag in
    let over_succs f base self i =
      List.fold_left (fun m (a : Dag.arc) -> f m a (self a.Dag.dst)) (base i)
        succs.(i)
    in
    let over_preds f base self i =
      List.fold_left (fun m (a : Dag.arc) -> f m a (self a.Dag.src)) (base i)
        preds.(i)
    in
    let path_to_leaf =
      memo n (over_succs (fun m _ v -> max m (v + 1)) (fun _ -> 0))
    in
    let delay_to_leaf =
      memo n (over_succs (fun m a v -> max m (v + a.Dag.latency)) exec)
    in
    let path_from_root =
      memo n (over_preds (fun m _ v -> max m (v + 1)) (fun _ -> 0))
    in
    let delay_from_root =
      memo n (over_preds (fun m a v -> max m (v + a.Dag.latency)) (fun _ -> 0))
    in
    let est =
      memo n (over_preds (fun m a v -> max m (v + a.Dag.latency)) (fun _ -> 0))
    in
    let cp = ref 0 in
    for i = 0 to n - 1 do
      cp := max !cp (est i + exec i)
    done;
    let cp = !cp in
    let lst =
      memo n
        (over_succs
           (fun m a v -> min m (v - a.Dag.latency))
           (fun i -> cp - exec i))
    in
    let descendants i =
      let seen = Array.make n false in
      let rec visit j =
        List.iter
          (fun (a : Dag.arc) ->
            if not seen.(a.Dag.dst) then begin
              seen.(a.Dag.dst) <- true;
              visit a.Dag.dst
            end)
          succs.(j)
      in
      visit i;
      seen.(i) <- false;
      let out = ref [] in
      for j = n - 1 downto 0 do
        if seen.(j) then out := j :: !out
      done;
      !out
    in
    let regs = Liveness.compute (Array.init n (Dag.insn dag)) in
    { exec; path_to_leaf; delay_to_leaf; path_from_root; delay_from_root;
      est; lst; descendants; regs; succs; preds }

  (* scheduling-direction helpers, recomputed from the raw arc lists *)
  let dir_succs slow (st : Dyn_state.t) i =
    match st.Dyn_state.direction with
    | Dyn_state.Forward -> slow.succs.(i)
    | Dyn_state.Backward -> slow.preds.(i)

  let dir_peer (st : Dyn_state.t) (a : Dag.arc) =
    match st.Dyn_state.direction with
    | Dyn_state.Forward -> a.Dag.dst
    | Dyn_state.Backward -> a.Dag.src

  let dir_preds slow (st : Dyn_state.t) i =
    match st.Dyn_state.direction with
    | Dyn_state.Forward -> slow.preds.(i)
    | Dyn_state.Backward -> slow.succs.(i)

  let unscheduled_dir_preds slow st p =
    List.length
      (List.filter
         (fun (a : Dag.arc) ->
           let parent =
             match st.Dyn_state.direction with
             | Dyn_state.Forward -> a.Dag.src
             | Dyn_state.Backward -> a.Dag.dst
           in
           not st.Dyn_state.scheduled.(parent))
         (dir_preds slow st p))

  (* earliest execution time from first principles: the latest
     (issue time + arc delay) over scheduled direction-predecessors *)
  let eet slow st i =
    List.fold_left
      (fun m (a : Dag.arc) ->
        let p =
          match st.Dyn_state.direction with
          | Dyn_state.Forward -> a.Dag.src
          | Dyn_state.Backward -> a.Dag.dst
        in
        if st.Dyn_state.scheduled.(p) then
          max m (st.Dyn_state.sched_time.(p) + a.Dag.latency)
        else m)
      0 (dir_preds slow st i)

  let single_parent_arcs slow st i =
    List.filter (fun a -> unscheduled_dir_preds slow st (dir_peer st a) = 1)
      (dir_succs slow st i)

  let value (h : Heuristic.t) slow (st : Dyn_state.t) i =
    let dag = st.Dyn_state.dag in
    let model = Dag.model dag in
    let succs = slow.succs.(i) and preds = slow.preds.(i) in
    let lats arcs = List.map (fun (a : Dag.arc) -> a.Dag.latency) arcs in
    let sum = List.fold_left ( + ) 0 in
    let maxl = List.fold_left max 0 in
    match h with
    | Heuristic.Interlock_with_previous -> (
        match st.Dyn_state.last with
        | -1 -> 0
        | last ->
            if
              List.exists
                (fun (a : Dag.arc) ->
                  dir_peer st a = i && a.Dag.latency > 1)
                (dir_succs slow st last)
            then 1
            else 0)
    | Heuristic.Earliest_execution_time -> eet slow st i
    | Heuristic.Interlock_with_child ->
        if List.exists (fun (a : Dag.arc) -> a.Dag.latency > 1) succs then 1
        else 0
    | Heuristic.Execution_time -> slow.exec i
    | Heuristic.Alternate_type -> (
        match st.Dyn_state.last with
        | -1 -> 0
        | last ->
            if
              Funit.of_insn (Dag.insn dag i)
              <> Funit.of_insn (Dag.insn dag last)
            then 1
            else 0)
    | Heuristic.Fp_unit_busy ->
        let insn = Dag.insn dag i in
        if model.Latency.fp_busy insn > 0 then begin
          (* replay the unit reservations from the schedule so far *)
          let u = Funit.of_insn insn in
          let free = ref 0 in
          for j = 0 to Dag.length dag - 1 do
            let ij = Dag.insn dag j in
            let busy = model.Latency.fp_busy ij in
            if st.Dyn_state.scheduled.(j) && busy > 0 && Funit.of_insn ij = u
            then free := max !free (st.Dyn_state.sched_time.(j) + busy)
          done;
          max 0 (!free - st.Dyn_state.time)
        end
        else 0
    | Heuristic.Max_path_to_leaf -> slow.path_to_leaf i
    | Heuristic.Max_delay_to_leaf -> slow.delay_to_leaf i
    | Heuristic.Max_path_from_root -> slow.path_from_root i
    | Heuristic.Max_delay_from_root -> slow.delay_from_root i
    | Heuristic.Earliest_start_time -> slow.est i
    | Heuristic.Latest_start_time -> slow.lst i
    | Heuristic.Slack -> slow.lst i - slow.est i
    | Heuristic.Num_children -> List.length succs
    | Heuristic.Delays_to_children Heuristic.Sum -> sum (lats succs)
    | Heuristic.Delays_to_children Heuristic.Max -> maxl (lats succs)
    | Heuristic.Num_single_parent_children ->
        List.length (single_parent_arcs slow st i)
    | Heuristic.Sum_delays_to_single_parent_children ->
        sum (lats (single_parent_arcs slow st i))
    | Heuristic.Num_uncovered_children ->
        List.length
          (List.filter
             (fun (a : Dag.arc) ->
               a.Dag.latency <= 1
               && eet slow st (dir_peer st a) <= st.Dyn_state.time + 1)
             (single_parent_arcs slow st i))
    | Heuristic.Num_parents -> List.length preds
    | Heuristic.Delays_from_parents Heuristic.Sum -> sum (lats preds)
    | Heuristic.Delays_from_parents Heuristic.Max -> maxl (lats preds)
    | Heuristic.Num_descendants -> List.length (slow.descendants i)
    | Heuristic.Sum_exec_of_descendants ->
        sum (List.map slow.exec (slow.descendants i))
    | Heuristic.Registers_born -> slow.regs.Liveness.born.(i)
    | Heuristic.Registers_killed -> slow.regs.Liveness.killed.(i)
    | Heuristic.Liveness -> slow.regs.Liveness.net.(i)
    | Heuristic.Birthing_instruction -> (
        match st.Dyn_state.last with
        | -1 -> 0
        | last ->
            (* a RAW arc between [last] and [i] in the scheduling
               direction: backward, [i] is a RAW parent of [last];
               forward (mirrored), a RAW child *)
            if
              List.exists
                (fun (a : Dag.arc) ->
                  a.Dag.kind = Dep.Raw && dir_peer st a = i)
                (dir_succs slow st last)
            then 1
            else 0)
    | Heuristic.Original_order -> i
end

(* Every constructor [Evaluate.value] dispatches on: the 26 Table-1 rows
   (Sum forms), the Max forms of the two φ rows, and the tie-break. *)
let all_evaluable =
  Heuristic.Original_order
  :: Heuristic.Delays_to_children Heuristic.Max
  :: Heuristic.Delays_from_parents Heuristic.Max
  :: Heuristic.all_26

let audit_dag dag direction =
  let annot = Static_pass.compute dag in
  let slow = Slow.make dag in
  let st = Dyn_state.create dag direction in
  let audit_step step =
    for i = 0 to Dag.length dag - 1 do
      List.iter
        (fun h ->
          let fast = Evaluate.value h ~annot ~st i in
          let want = Slow.value h slow st i in
          if fast <> want then
            Alcotest.failf "step %d, node %d, %s: fast %d, slow spec %d" step
              i (Heuristic.to_string h) fast want)
        all_evaluable
    done
  in
  (* audit against the empty schedule, then after every issue of a
     greedy lowest-index list schedule *)
  audit_step (-1);
  let step = ref 0 in
  while not (Dyn_state.complete st) do
    let picked = ref false in
    for i = 0 to Dag.length dag - 1 do
      if (not !picked) && Dyn_state.ready st i then begin
        picked := true;
        Dyn_state.schedule st i ~at:st.Dyn_state.time;
        audit_step !step;
        incr step
      end
    done;
    st.Dyn_state.time <- st.Dyn_state.time + 1
  done

let audit_asm =
  "ld [%fp - 8], %o1\n\
   add %o1, 1, %o2\n\
   fdivd %f0, %f2, %f4\n\
   faddd %f4, %f6, %f8\n\
   st %o2, [%fp - 16]\n\
   fdivd %f8, %f10, %f12\n\
   add %o3, %o2, %o4\n\
   st %o4, [%fp - 24]"

let test_table1_audit_forward () =
  let opts = { Opts.default with Opts.model = Latency.deep_fp } in
  audit_dag (dag_of_asm ~opts audit_asm) Dyn_state.Forward

let test_table1_audit_backward () =
  let opts = { Opts.default with Opts.model = Latency.deep_fp } in
  audit_dag (dag_of_asm ~opts audit_asm) Dyn_state.Backward

let test_table1_audit_random () =
  List.iter
    (fun seed ->
      let b = random_block seed in
      let dag = Builder.build Builder.Table_forward Opts.default b in
      audit_dag dag Dyn_state.Forward;
      audit_dag dag Dyn_state.Backward)
    [ 7; 1991; 90210 ]

let suite =
  [ quick "26 heuristics" test_26_heuristics;
    quick "category counts" test_category_counts;
    quick "table 1 passes" test_table1_passes;
    quick "table 1 transitive markers" test_table1_transitive_markers;
    quick "dynamic classification" test_dynamic_classification;
    quick "EST" test_est;
    quick "paths" test_paths;
    quick "LST and slack" test_lst_slack;
    quick "descendant measures" test_descendant_measures;
    quick "level lists = reverse walk" test_level_lists_match_reverse_walk;
    quick "levels" test_levels;
    quick "registers born/killed" test_registers_born_killed;
    quick "liveness live-out" test_liveness_live_out;
    quick "dead def not born" test_dead_def_not_born;
    quick "EET updates" test_earliest_execution_time_updates;
    quick "interlock with previous" test_interlock_with_previous;
    quick "uncovering chain" test_uncovering_chain;
    quick "uncovered respects delay" test_uncovered_respects_delay;
    quick "uncovering invariant" test_uncovering_invariant;
    quick "sum delays single-parent" test_sum_delays_single_parent;
    quick "alternate type" test_alternate_type;
    quick "fp unit busy" test_fp_unit_busy;
    quick "birthing" test_birthing;
    quick "evaluate dispatch" test_evaluate_dispatch;
    quick "table 1 audit (forward)" test_table1_audit_forward;
    quick "table 1 audit (backward)" test_table1_audit_backward;
    quick "table 1 audit (random blocks)" test_table1_audit_random ]
