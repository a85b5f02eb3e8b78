(** DAG construction tests: hand-checked arcs for each builder, the
    paper's Figure-1 transitive-arc scenario, memory disambiguation,
    add_arc bookkeeping, forests, anchoring, and closure utilities. *)

open Dagsched
open Helpers

let build ?(opts = Opts.default) alg s = Builder.build alg opts (block_of_asm s)

(* ------------------------------------------------------------------ *)
(* elementary dependencies, every builder *)

let each_builder f = List.iter f Builder.all

let test_raw_arc () =
  each_builder (fun alg ->
      let dag = build alg "ld [%fp - 8], %o1\nadd %o1, 1, %o2" in
      check_bool (Builder.to_string alg) true (has_arc dag ~src:0 ~dst:1);
      check_bool "kind RAW" true (arc_kind dag ~src:0 ~dst:1 = Dep.Raw);
      check_int "latency = load latency" 2 (arc_latency dag ~src:0 ~dst:1))

let test_war_arc () =
  each_builder (fun alg ->
      let dag = build alg "add %o1, 1, %o2\nmov 5, %o1" in
      check_bool (Builder.to_string alg) true (has_arc dag ~src:0 ~dst:1);
      check_bool "kind WAR" true (arc_kind dag ~src:0 ~dst:1 = Dep.War);
      check_int "WAR latency 1" 1 (arc_latency dag ~src:0 ~dst:1))

let test_waw_arc () =
  each_builder (fun alg ->
      let dag = build alg "mov 1, %o1\nmov 2, %o1" in
      check_bool (Builder.to_string alg) true (has_arc dag ~src:0 ~dst:1);
      check_bool "kind WAW" true (arc_kind dag ~src:0 ~dst:1 = Dep.Waw))

let test_independent_no_arc () =
  each_builder (fun alg ->
      let dag = build alg "add %o1, 1, %o2\nadd %o3, 1, %o4" in
      check_int (Builder.to_string alg) 0 (Dag.n_arcs dag))

let test_cc_dependency () =
  each_builder (fun alg ->
      let dag = build alg "cmp %o1, 0\nbe out" in
      check_bool "cmp -> branch via icc" true (has_arc dag ~src:0 ~dst:1))

let test_raw_preferred_on_tie () =
  (* add %o1,%o2,%o1: both RAW (reads o1) and WAW (writes o1) vs mov 1,%o1 —
     the coalesced arc reports the strongest (largest-latency) conflict *)
  each_builder (fun alg ->
      let dag = build alg "mov 1, %o1\nadd %o1, %o2, %o1" in
      check_bool "single coalesced arc" true (Dag.n_arcs dag = 1);
      check_bool "arc exists" true (has_arc dag ~src:0 ~dst:1))

(* ------------------------------------------------------------------ *)
(* Figure 1: transitive-arc retention *)

let figure1_dag alg = Builder.build alg figure1_opts (figure1_block ())

let test_figure1_structure_n2 () =
  let dag = figure1_dag Builder.N2_forward in
  check_bool "1->2 WAR" true (arc_kind dag ~src:0 ~dst:1 = Dep.War);
  check_int "1->2 delay 1" 1 (arc_latency dag ~src:0 ~dst:1);
  check_bool "2->3 RAW" true (arc_kind dag ~src:1 ~dst:2 = Dep.Raw);
  check_int "2->3 delay 4" 4 (arc_latency dag ~src:1 ~dst:2);
  check_bool "1->3 RAW retained" true (has_arc dag ~src:0 ~dst:2);
  check_int "1->3 delay 20" 20 (arc_latency dag ~src:0 ~dst:2)

let test_figure1_table_builders_retain () =
  (* "The table building methods discussed above will retain this kind of
     arc." *)
  List.iter
    (fun alg ->
      let dag = figure1_dag alg in
      check_bool
        (Builder.to_string alg ^ " retains 1->3")
        true (has_arc dag ~src:0 ~dst:2);
      check_int "with the 20-cycle delay" 20 (arc_latency dag ~src:0 ~dst:2))
    [ Builder.Table_forward; Builder.Table_backward ]

let test_figure1_reducers_drop () =
  (* the transitive-arc-avoiding builders lose the 1->3 arc — the paper's
     argument against them (conclusion 3) *)
  List.iter
    (fun alg ->
      let dag = figure1_dag alg in
      check_bool (Builder.to_string alg ^ " drops 1->3") false
        (has_arc dag ~src:0 ~dst:2))
    [ Builder.Landskov; Builder.Reach_backward ]

let test_figure1_est_error () =
  (* without the arc, node 3's earliest start time collapses from 20 to 5 *)
  let full = Static_pass.compute (figure1_dag Builder.Table_forward) in
  let reduced = Static_pass.compute (figure1_dag Builder.Landskov) in
  check_int "correct EST" 20 full.Annot.est.(2);
  check_int "miscalculated EST" 5 reduced.Annot.est.(2)

(* ------------------------------------------------------------------ *)
(* transitive arcs at scale *)

let chain_asm =
  (* r1 -> r2 -> r3 -> r4: n2 adds direct arcs between every dependent
     pair, table building only the chain *)
  "add %o1, 1, %o2\nadd %o2, 1, %o2\nadd %o2, 1, %o2\nadd %o2, 1, %o3"

let test_n2_keeps_transitive () =
  let dag = build Builder.N2_forward chain_asm in
  check_bool "transitive arcs present" true (dfs_transitive_arcs dag <> []);
  check_int "the reach pass counts them"
    (List.length (dfs_transitive_arcs dag))
    (Closure.count_transitive_arcs dag)

let test_reducers_are_reduced () =
  List.iter
    (fun alg ->
      let dag = build alg chain_asm in
      check_int (Builder.to_string alg) 0 (List.length (dfs_transitive_arcs dag));
      check_int (Builder.to_string alg ^ ", reach pass") 0
        (Closure.count_transitive_arcs dag))
    [ Builder.Landskov; Builder.Reach_backward ]

let test_n2_has_most_arcs () =
  let b = random_block 12345 in
  let n2 = Builder.build Builder.N2_forward Opts.default b in
  let tf = Builder.build Builder.Table_forward Opts.default b in
  let red = Builder.build Builder.Landskov Opts.default b in
  check_bool "n2 >= table" true (Dag.n_arcs n2 >= Dag.n_arcs tf);
  check_bool "table >= reduced" true (Dag.n_arcs tf >= Dag.n_arcs red)

(* ------------------------------------------------------------------ *)
(* memory disambiguation *)

let two_stores = "st %o1, [%fp - 8]\nst %o2, [%fp - 16]"

let test_serialize_all () =
  let opts = { Opts.default with Opts.strategy = Disambiguate.Serialize_all } in
  each_builder (fun alg ->
      let dag = Builder.build alg opts (block_of_asm two_stores) in
      check_bool (Builder.to_string alg ^ " serializes") true
        (has_arc dag ~src:0 ~dst:1))

let test_base_offset_disambiguates () =
  let opts = { Opts.default with Opts.strategy = Disambiguate.Base_offset } in
  each_builder (fun alg ->
      let dag = Builder.build alg opts (block_of_asm two_stores) in
      check_bool (Builder.to_string alg ^ " disambiguates") false
        (has_arc dag ~src:0 ~dst:1))

let test_different_bases_serialize () =
  let opts = { Opts.default with Opts.strategy = Disambiguate.Base_offset } in
  let dag =
    Builder.build Builder.Table_forward opts
      (block_of_asm "st %o1, [%o2 + 4]\nld [%o3 + 8], %o4")
  in
  check_bool "different bases conservatively ordered" true
    (has_arc dag ~src:0 ~dst:1)

let test_storage_classes_split () =
  let opts = { Opts.default with Opts.strategy = Disambiguate.Storage_classes } in
  each_builder (fun alg ->
      let dag =
        Builder.build alg opts
          (block_of_asm "st %o1, [%fp - 8]\nld [glob], %o2")
      in
      check_bool (Builder.to_string alg ^ " stack/global independent") false
        (has_arc dag ~src:0 ~dst:1));
  (* distinct named globals are independent too *)
  let dag =
    Builder.build Builder.Table_forward opts
      (block_of_asm "st %o1, [ga]\nld [gb], %o2")
  in
  check_bool "distinct globals independent" false (has_arc dag ~src:0 ~dst:1)

let test_same_expr_always_ordered () =
  List.iter
    (fun strategy ->
      let opts = { Opts.default with Opts.strategy } in
      let dag =
        Builder.build Builder.Table_backward opts
          (block_of_asm "st %o1, [%fp - 8]\nld [%fp - 8], %o2")
      in
      check_bool (Disambiguate.to_string strategy) true (has_arc dag ~src:0 ~dst:1))
    Disambiguate.all

let test_nontransitive_alias_chain () =
  (* the regression behind the cross-aliasing rework: a global use must
     stay ordered before a later store through a different stack slot *)
  let opts = { Opts.default with Opts.strategy = Disambiguate.Base_offset } in
  let asm = "ld [g1 + 20], %i3\nst %i3, [%fp - 228]\nst %o4, [%fp - 76]" in
  let n2 = Builder.build Builder.N2_forward opts (block_of_asm asm) in
  let tf = Builder.build Builder.Table_forward opts (block_of_asm asm) in
  let tb = Builder.build Builder.Table_backward opts (block_of_asm asm) in
  check_bool "n2/table-fwd equivalent" true (Closure.equivalent n2 tf);
  check_bool "n2/table-bwd equivalent" true (Closure.equivalent n2 tb)

(* ------------------------------------------------------------------ *)
(* add_arc bookkeeping *)

let test_counters () =
  let dag = build Builder.N2_forward "ld [%fp - 8], %o1\nadd %o1, 1, %o2\nsub %o1, 1, %o3" in
  check_int "children of load" 2 (Dag.n_children dag 0);
  check_int "parents of add" 1 (Dag.n_parents dag 1);
  check_int "sum delays to children" 4 (Dag.sum_delays_to_children dag 0);
  check_int "max delay to child" 2 (Dag.max_delay_to_child dag 0);
  check_bool "interlock with child (load latency 2)" true
    (Dag.interlock_with_child dag 0);
  check_bool "no interlock from add" false (Dag.interlock_with_child dag 1)

let test_duplicate_arc_coalesced () =
  (* the pair conflicts on two resources; one arc results *)
  let dag = build Builder.N2_forward "ldd [%fp - 8], %o0\nadd %o0, %o1, %o2" in
  check_int "single arc" 1 (Dag.n_arcs dag);
  check_int "children counted once" 1 (Dag.n_children dag 0)

let test_roots_leaves_forest () =
  let dag = build Builder.Table_forward "add %o1, 1, %o2\nadd %o2, 1, %o3\nadd %o4, 1, %o5" in
  Alcotest.(check (list int)) "roots" [ 0; 2 ] (Dag.roots dag);
  Alcotest.(check (list int)) "leaves" [ 1; 2 ] (Dag.leaves dag);
  check_int "forest of two" 2 (Dag.forest_size dag)

let test_anchor_terminator () =
  let asm = "add %o1, 1, %o2\nadd %o3, 1, %o4\ncmp %o2, 0\nbe out" in
  let opts = { Opts.default with Opts.anchor_branch = true } in
  let dag = Builder.build Builder.Table_forward opts (block_of_asm asm) in
  (* node 1 is independent; the anchor forces it before the branch *)
  check_bool "leaf anchored to branch" true (has_arc dag ~src:1 ~dst:3);
  check_bool "anchor arc is control" true (arc_kind dag ~src:1 ~dst:3 = Dep.Ctl);
  let no_anchor = { Opts.default with Opts.anchor_branch = false } in
  let dag' = Builder.build Builder.Table_forward no_anchor (block_of_asm asm) in
  check_bool "no anchor without option" false (has_arc dag' ~src:1 ~dst:3)

let test_forward_ordered () =
  each_builder (fun alg ->
      let dag = Builder.build alg Opts.default (random_block 777) in
      check_bool (Builder.to_string alg) true (Dag.forward_ordered dag))

(* ------------------------------------------------------------------ *)
(* closure utilities *)

let test_descendants () =
  let dag = build Builder.Table_forward chain_asm in
  let rows = Closure.descendants dag in
  check_int "node 0 reaches all 4" 4 (Bitset.Matrix.row_cardinal rows 0);
  check_int "last reaches itself" 1 (Bitset.Matrix.row_cardinal rows 3)

(* descendant rows are the dual of ancestor sets found by depth-first
   search up the pred chains *)
let test_ancestors_dual () =
  let dag = build Builder.N2_forward (chain_asm ^ "\nadd %o5, 1, %o6") in
  let desc = Closure.descendants dag in
  let n = Dag.length dag in
  let ancestors j =
    let seen = Array.make n false in
    let rec visit i =
      if not seen.(i) then begin
        seen.(i) <- true;
        Dag.iter_pred dag i (fun src _ _ -> visit src)
      end
    in
    visit j;
    seen
  in
  for j = 0 to n - 1 do
    let anc = ancestors j in
    for i = 0 to n - 1 do
      check_bool "duality" anc.(i) (Bitset.Matrix.mem desc i j)
    done
  done

let test_refines () =
  let n2 = build Builder.N2_forward chain_asm in
  let red = build Builder.Landskov chain_asm in
  check_bool "n2 refines reduced" true (Closure.refines n2 red);
  check_bool "reduced refines n2 (equal closures)" true (Closure.refines red n2)

let test_reach_maps_match_closure () =
  let b = random_block 4242 in
  let dag = Builder.build Builder.Reach_backward Opts.default b in
  match Dag.reach_matrix dag with
  | None -> Alcotest.fail "reach maps expected"
  | Some rows -> check_bool "maps = closure" true (rows_match_dfs rows dag)

(* ------------------------------------------------------------------ *)
(* reach-backward against its compare-against-all yardstick *)

(* every node's succ walk, in walk order: what [build -v] prints *)
let succ_walks dag =
  List.init (Dag.length dag) (fun i ->
      Dag.fold_succ dag i (fun acc d l k -> (d, l, k) :: acc) [])

(* same fingerprint, succ walks and reach rows as the yardstick *)
let reach_matches_legacy opts block =
  let dag = Builder.build Builder.Reach_backward opts block in
  let legacy = Reach_legacy.build opts block in
  Dag.fingerprint dag = Dag.fingerprint legacy
  && succ_walks dag = succ_walks legacy
  &&
  match (Dag.reach_matrix dag, Dag.reach_matrix legacy) with
  | Some a, Some b ->
      Bitset.Matrix.rows a = Bitset.Matrix.rows b
      && List.for_all
           (fun i -> Bitset.Matrix.row_equal a i b i)
           (List.init (Bitset.Matrix.rows a) Fun.id)
  | _ -> false

let prop_reach_matches_legacy seed =
  List.for_all (fun opts -> reach_matches_legacy opts (random_block seed)) all_opts

(* 0/1-insn blocks, and blocks past the 64-arc mark *)
let test_reach_edge_blocks () =
  let blocks =
    [ { Block.id = 0; insns = [||] };
      block_of_asm "add %o1, 1, %o2";
      block_of_asm "ld [%fp - 8], %o1\nadd %o1, 1, %o2\ncmp %o2, 0\nbe out";
      Gen.block (Prng.create 5) ~params:Gen.fp_straightline ~id:0 ~size:160 ();
      Gen.block (Prng.create 6) ~params:Gen.int_code ~id:0 ~size:300 () ]
  in
  List.iteri
    (fun k block ->
      List.iter
        (fun opts ->
          check_bool (Printf.sprintf "block %d" k) true
            (reach_matches_legacy opts block))
        all_opts)
    blocks

(* Every block of at most 400 insns of the Table-3 corpus, under every
   model, strategy and anchoring; runs only under [dune build @slow]
   (DAGSCHED_REACH_HEAVY=1). *)
let test_reach_corpus () =
  if Sys.getenv_opt "DAGSCHED_REACH_HEAVY" <> None then
    List.iter
      (fun (name, blocks) ->
        List.iter
          (fun (b : Block.t) ->
            if Array.length b.Block.insns <= 400 then
              List.iter
                (fun opts ->
                  if not (reach_matches_legacy opts b) then
                    Alcotest.failf "%s block %d, %s/%s, anchor %b" name
                      b.Block.id opts.Opts.model.Latency.name
                      (Disambiguate.to_string opts.Opts.strategy)
                      opts.Opts.anchor_branch)
                all_opts)
          blocks)
      (Profiles.corpus Profiles.all)


(* ------------------------------------------------------------------ *)
(* pairwise dependence analysis *)

let insn_of s = List.hd (parse s)

(* the packed strongest dependency of [child] on [parent] *)
let strongest ~model ~strategy parent child =
  let insns = [| insn_of parent; insn_of child |] in
  let sum = Pairdep.summarize_block strategy insns in
  Pairdep.strongest_packed sum ~model ~strategy insns 0 1

let test_pairdep_conflict_kinds () =
  let model = Latency.simple_risc and strategy = Disambiguate.Base_offset in
  let pk = strongest ~model ~strategy "add %o1, %o2, %o3" "mov 1, %o1" in
  check_bool "a conflict" true (pk >= 0);
  check_bool "WAR only" true (Pairdep.kind_of_packed pk = Dep.War)

let test_pairdep_strongest_prefers_raw () =
  let model = Latency.unit_latency and strategy = Disambiguate.Base_offset in
  let pk = strongest ~model ~strategy "add %o1, %o2, %o3" "add %o3, 1, %o3" in
  check_bool "a conflict" true (pk >= 0);
  check_bool "RAW wins latency ties" true (Pairdep.kind_of_packed pk = Dep.Raw)

let test_pairdep_depends () =
  let model = Latency.unit_latency and strategy = Disambiguate.Base_offset in
  check_bool "dependent" true
    (strongest ~model ~strategy "mov 1, %o1" "add %o1, 1, %o2" >= 0);
  check_int "independent" (-1)
    (strongest ~model ~strategy "mov 1, %o1" "add %o3, 1, %o4")

(* the summarized pair test draws the arc the table builder draws
   straight from the block's decode *)
let test_pairdep_summary_matches_direct () =
  let model = Latency.deep_fp and strategy = Disambiguate.Storage_classes in
  let a = "stdf %f4, [%fp - 8]" and b = "lddf [%fp - 8], %f6" in
  let pk = strongest ~model ~strategy a b in
  let dag =
    build ~opts:{ Opts.default with Opts.model; strategy } Builder.Table_forward
      (a ^ "\n" ^ b)
  in
  check_bool "kind" true (Pairdep.kind_of_packed pk = arc_kind dag ~src:0 ~dst:1);
  check_int "latency" (arc_latency dag ~src:0 ~dst:1) (Pairdep.latency_of_packed pk)

let suite =
  [ quick "RAW arc" test_raw_arc;
    quick "WAR arc" test_war_arc;
    quick "WAW arc" test_waw_arc;
    quick "independent no arc" test_independent_no_arc;
    quick "cc dependency" test_cc_dependency;
    quick "RAW preferred on tie" test_raw_preferred_on_tie;
    quick "figure 1 n2 structure" test_figure1_structure_n2;
    quick "figure 1 table retains" test_figure1_table_builders_retain;
    quick "figure 1 reducers drop" test_figure1_reducers_drop;
    quick "figure 1 EST error" test_figure1_est_error;
    quick "n2 keeps transitive arcs" test_n2_keeps_transitive;
    quick "reducers are reduced" test_reducers_are_reduced;
    quick "n2 has most arcs" test_n2_has_most_arcs;
    quick "serialize-all" test_serialize_all;
    quick "base-offset disambiguates" test_base_offset_disambiguates;
    quick "different bases serialize" test_different_bases_serialize;
    quick "storage classes split" test_storage_classes_split;
    quick "same expr always ordered" test_same_expr_always_ordered;
    quick "non-transitive alias chain" test_nontransitive_alias_chain;
    quick "add_arc counters" test_counters;
    quick "duplicate arc coalesced" test_duplicate_arc_coalesced;
    quick "roots/leaves/forest" test_roots_leaves_forest;
    quick "anchor terminator" test_anchor_terminator;
    quick "forward ordered" test_forward_ordered;
    quick "descendants" test_descendants;
    quick "ancestors dual" test_ancestors_dual;
    quick "refines" test_refines;
    quick "reach maps match closure" test_reach_maps_match_closure;
    qcheck ~count:60 "reach-backward matches its yardstick" arb_block
      prop_reach_matches_legacy;
    quick "reach-backward yardstick: edge blocks" test_reach_edge_blocks;
    quick "reach-backward yardstick: Table-3 corpus" test_reach_corpus;
    quick "pairdep conflict kinds" test_pairdep_conflict_kinds;
    quick "pairdep strongest prefers RAW" test_pairdep_strongest_prefers_raw;
    quick "pairdep depends" test_pairdep_depends;
    quick "pairdep summary matches direct" test_pairdep_summary_matches_direct ]
