(** Differential and regression tests for the flat arena DAG against the
    pre-arena {!Dag_legacy} yardstick: the arc-index aliasing fix, the
    deterministic equal-latency kind tie-break, replay equivalence of the
    per-node bookkeeping across every builder and strategy, exact
    cross-direction arc agreement for the n² builders, the open-addressed
    arc index under growth, the adjacency walks against the whole-graph
    queries and a coalescing model, and fingerprint canonicity. *)

open Dagsched
open Helpers

let model = Latency.simple_risc

let nop_block n = Array.init n (fun i -> Insn.with_index (List.hd (parse "nop")) i)

(* ------------------------------------------------------------------ *)
(* bug 1: arc-index aliasing *)

(* The legacy arc index hashed (src, dst) as [src * n + dst] with no
   bounds check, so for n = 10 the out-of-range query (0, 13) keys to 13
   — the slot of the in-range pair (1, 3).  The arena probes by the
   exact packed (src, dst) key and bounds-checks first. *)
let test_find_arc_alias_regression () =
  let insns = nop_block 10 in
  let arena = Dag.create ~model insns in
  let legacy = Dag_legacy.create ~model insns in
  ignore (Dag.add_arc arena ~src:1 ~dst:3 ~kind:Dep.Raw ~latency:2);
  ignore (Dag_legacy.add_arc legacy ~src:1 ~dst:3 ~kind:Dep.Raw ~latency:2);
  check_bool "both see the in-range arc" true
    (Dag.has_arc arena ~src:1 ~dst:3 && Dag_legacy.has_arc legacy ~src:1 ~dst:3);
  (* the historical bug, demonstrated on the preserved structure *)
  check_bool "legacy reports the phantom arc" true
    (Dag_legacy.has_arc legacy ~src:0 ~dst:13);
  (* the fix *)
  check_bool "arena rejects out-of-range dst" false
    (Dag.has_arc arena ~src:0 ~dst:13);
  check_bool "arena find_arc out of range" true
    (Dag.find_arc arena ~src:0 ~dst:13 = None);
  check_bool "negative src rejected" false (Dag.has_arc arena ~src:(-1) ~dst:3);
  check_bool "negative dst rejected" false (Dag.has_arc arena ~src:1 ~dst:(-7));
  (* in-range pairs with the same hashed key stay distinct *)
  check_bool "no arc 2 -> 3" false (Dag.has_arc arena ~src:2 ~dst:3)

(* ------------------------------------------------------------------ *)
(* bug 2: equal-latency kind tie-break *)

let all_kinds = [ Dep.Raw; Dep.Waw; Dep.War; Dep.Ctl ]

(* dependence strength, the coalescing tie-break order *)
let rank = function Dep.Raw -> 3 | Dep.Waw -> 2 | Dep.War -> 1 | Dep.Ctl -> 0

let arena_kind order =
  let dag = Dag.create ~model (nop_block 2) in
  List.iter
    (fun kind -> ignore (Dag.add_arc dag ~src:0 ~dst:1 ~kind ~latency:1))
    order;
  arc_kind dag ~src:0 ~dst:1

let test_kind_tie_break_deterministic () =
  (* every 2-permutation coalesces to the stronger kind, both orders *)
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if a <> b then begin
            let stronger = if rank a > rank b then a else b in
            check_bool "order 1" true (arena_kind [ a; b ] = stronger);
            check_bool "order 2" true (arena_kind [ b; a ] = stronger)
          end)
        all_kinds)
    all_kinds;
  (* a larger latency still dominates regardless of kind strength *)
  let dag = Dag.create ~model (nop_block 2) in
  ignore (Dag.add_arc dag ~src:0 ~dst:1 ~kind:Dep.Raw ~latency:1);
  ignore (Dag.add_arc dag ~src:0 ~dst:1 ~kind:Dep.War ~latency:5);
  check_bool "latency beats strength" true (arc_kind dag ~src:0 ~dst:1 = Dep.War);
  check_int "coalesced latency" 5 (arc_latency dag ~src:0 ~dst:1)

let test_legacy_kind_order_dependent () =
  (* the historical behaviour the tie-break replaces: first arrival wins *)
  let legacy_kind order =
    let d = Dag_legacy.create ~model (nop_block 2) in
    List.iter
      (fun kind -> ignore (Dag_legacy.add_arc d ~src:0 ~dst:1 ~kind ~latency:1))
      order;
    match Dag_legacy.find_arc d ~src:0 ~dst:1 with
    | Some a -> a.Dag_legacy.kind
    | None -> Alcotest.fail "arc expected"
  in
  check_bool "legacy keeps first arrival" true
    (legacy_kind [ Dep.War; Dep.Waw ] = Dep.War
    && legacy_kind [ Dep.Waw; Dep.War ] = Dep.Waw)

(* ------------------------------------------------------------------ *)
(* arena = legacy replay differential *)

(* Replay an arena-built DAG arc-by-arc into the legacy structure and
   demand identical structure and Table-1 bookkeeping.  Coalescing never
   fires during a replay (arena arcs are unique per pair), so both
   historical bugs are out of the picture and everything must agree. *)
let replay_into_legacy dag =
  let insns = Array.init (Dag.length dag) (Dag.insn dag) in
  let legacy = Dag_legacy.create ~model:(Dag.model dag) insns in
  Dag.iter_arcs
    (fun a ->
      if
        not
          (Dag_legacy.add_arc legacy ~src:a.Dag.src ~dst:a.Dag.dst
             ~kind:a.Dag.kind ~latency:a.Dag.latency)
      then Alcotest.failf "replay coalesced %d -> %d" a.Dag.src a.Dag.dst)
    dag;
  legacy

let sorted_arena_arcs dag =
  List.sort compare
    (List.map
       (fun (a : Dag.arc) -> (a.Dag.src, a.Dag.dst, a.Dag.kind, a.Dag.latency))
       (Dag.arcs dag))

let sorted_legacy_arcs d =
  List.sort compare
    (List.map
       (fun (a : Dag_legacy.arc) ->
         (a.Dag_legacy.src, a.Dag_legacy.dst, a.Dag_legacy.kind, a.Dag_legacy.latency))
       (Dag_legacy.arcs d))

let check_replay_equal name dag legacy =
  let n = Dag.length dag in
  if Dag.n_arcs dag <> Dag_legacy.n_arcs legacy then
    Alcotest.failf "%s: arc count %d vs %d" name (Dag.n_arcs dag)
      (Dag_legacy.n_arcs legacy);
  if sorted_arena_arcs dag <> sorted_legacy_arcs legacy then
    Alcotest.failf "%s: arc sets differ" name;
  for i = 0 to n - 1 do
    let eq what a b = if a <> b then Alcotest.failf "%s: node %d %s: %d vs %d" name i what a b in
    eq "children" (Dag.n_children dag i) (Dag_legacy.n_children legacy i);
    eq "parents" (Dag.n_parents dag i) (Dag_legacy.n_parents legacy i);
    eq "sum to children"
      (Dag.sum_delays_to_children dag i)
      (Dag_legacy.sum_delays_to_children legacy i);
    eq "sum from parents"
      (Dag.sum_delays_from_parents dag i)
      (Dag_legacy.sum_delays_from_parents legacy i);
    eq "max to child" (Dag.max_delay_to_child dag i)
      (Dag_legacy.max_delay_to_child legacy i);
    eq "max from parent"
      (Dag.max_delay_from_parent dag i)
      (Dag_legacy.max_delay_from_parent legacy i);
    if Dag.interlock_with_child dag i <> Dag_legacy.interlock_with_child legacy i
    then Alcotest.failf "%s: node %d interlock" name i;
    (* every in-range pair answers identically through both indexes *)
    for j = 0 to n - 1 do
      if Dag.has_arc dag ~src:i ~dst:j <> Dag_legacy.has_arc legacy ~src:i ~dst:j
      then Alcotest.failf "%s: has_arc (%d, %d)" name i j
    done
  done;
  if Dag.roots dag <> Dag_legacy.roots legacy then Alcotest.failf "%s: roots" name;
  if Dag.leaves dag <> Dag_legacy.leaves legacy then Alcotest.failf "%s: leaves" name

let differential_blocks =
  lazy
    ({ Block.id = 0; insns = [||] }           (* 0-instruction block *)
    :: block_of_asm "add %o1, 1, %o2"         (* 1-instruction block *)
    :: List.init 118 (fun s -> random_block ((s * 7) + 1)))

let test_replay_differential () =
  List.iter
    (fun b ->
      List.iter
        (fun strategy ->
          List.iter
            (fun alg ->
              let opts = { Opts.default with Opts.strategy } in
              let dag = Builder.build alg opts b in
              let name =
                Printf.sprintf "block %d %s/%s" b.Block.id
                  (Builder.to_string alg)
                  (Disambiguate.to_string strategy)
              in
              check_replay_equal name dag (replay_into_legacy dag))
            Builder.all)
        Disambiguate.all)
    (Lazy.force differential_blocks)

(* End to end: the arena table-forward builder against the preserved
   pre-arena builder.  Arcs must agree in (src, dst, latency); the kind
   may differ only where the deterministic tie-break upgraded an
   equal-latency coalesce the legacy code left at first-arrival. *)
let test_table_fwd_end_to_end () =
  List.iter
    (fun b ->
      List.iter
        (fun strategy ->
          let opts = { Opts.default with Opts.strategy } in
          let dag = Builder.build Builder.Table_forward opts b in
          let legacy = Dag_legacy.build_table_fwd opts b in
          let a = sorted_arena_arcs dag and l = sorted_legacy_arcs legacy in
          if List.length a <> List.length l then
            Alcotest.failf "block %d %s: arc count %d vs %d" b.Block.id
              (Disambiguate.to_string strategy)
              (List.length a) (List.length l);
          List.iter2
            (fun (s, d, k, lat) (s', d', k', lat') ->
              if s <> s' || d <> d' || lat <> lat' then
                Alcotest.failf "block %d %s: arc (%d,%d,%d) vs (%d,%d,%d)"
                  b.Block.id
                  (Disambiguate.to_string strategy)
                  s d lat s' d' lat';
              if k <> k' && rank k < rank k' then
                Alcotest.failf
                  "block %d %s: arena kind weaker than legacy on %d -> %d"
                  b.Block.id
                  (Disambiguate.to_string strategy)
                  s d)
            a l)
        Disambiguate.all)
    (Lazy.force differential_blocks)

(* ------------------------------------------------------------------ *)
(* cross-direction agreement *)

(* The n² builders examine the same pairs in opposite directions; with
   the deterministic tie-break their DAGs must now be arc-for-arc
   identical, kinds included. *)
let test_n2_directions_agree () =
  List.iter
    (fun b ->
      List.iter
        (fun strategy ->
          let opts = { Opts.default with Opts.strategy } in
          let fwd = Builder.build Builder.N2_forward opts b in
          let bwd = Builder.build Builder.N2_backward opts b in
          if sorted_arena_arcs fwd <> sorted_arena_arcs bwd then
            Alcotest.failf "block %d %s: n2 directions disagree" b.Block.id
              (Disambiguate.to_string strategy);
          if Dag.fingerprint fwd <> Dag.fingerprint bwd then
            Alcotest.failf "block %d %s: fingerprints disagree" b.Block.id
              (Disambiguate.to_string strategy))
        Disambiguate.all)
    (Lazy.force differential_blocks)

(* ------------------------------------------------------------------ *)
(* open-addressed arc index *)

let test_arc_index_threshold_crossing () =
  (* build through the chain-probe regime, across the 64-arc switchover
     and two index growths; every earlier arc must stay findable and no
     phantom may appear *)
  let n = 200 in
  let dag = Dag.create ~model (nop_block n) in
  for j = 1 to 150 do
    check_bool "fresh arc" true
      (Dag.add_arc dag ~src:0 ~dst:j ~kind:Dep.Raw ~latency:1);
    for k = 1 to j do
      if not (Dag.has_arc dag ~src:0 ~dst:k) then
        Alcotest.failf "lost arc 0 -> %d after %d arcs" k j
    done;
    if j + 1 < n && Dag.has_arc dag ~src:0 ~dst:(j + 1) then
      Alcotest.failf "phantom arc 0 -> %d" (j + 1)
  done;
  check_int "children bookkeeping" 150 (Dag.n_children dag 0);
  check_int "arc count" 150 (Dag.n_arcs dag);
  (* re-adding is a coalesce, not an insertion, in the indexed regime *)
  check_bool "duplicate coalesced" false
    (Dag.add_arc dag ~src:0 ~dst:75 ~kind:Dep.Raw ~latency:1);
  check_int "count unchanged" 150 (Dag.n_arcs dag)

let test_arc_index_random_differential () =
  (* dense random insertion on 300 nodes (well past the index threshold)
     against the legacy hashtable: fresh/coalesce decisions, presence and
     coalesced latencies must all agree *)
  let n = 300 in
  let insns = nop_block n in
  let dag = Dag.create ~model insns in
  let legacy = Dag_legacy.create ~model insns in
  let kinds = [| Dep.Raw; Dep.War; Dep.Waw; Dep.Ctl |] in
  let rng = Prng.create 99 in
  for _ = 1 to 2000 do
    let src = Prng.int rng (n - 1) in
    let dst = src + 1 + Prng.int rng (n - src - 1) in
    let kind = kinds.(Prng.int rng 4) in
    let latency = 1 + Prng.int rng 4 in
    let fresh = Dag.add_arc dag ~src ~dst ~kind ~latency in
    let fresh' = Dag_legacy.add_arc legacy ~src ~dst ~kind ~latency in
    if fresh <> fresh' then Alcotest.failf "fresh report diverged at %d -> %d" src dst
  done;
  check_int "arc counts" (Dag_legacy.n_arcs legacy) (Dag.n_arcs dag);
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      match (Dag.find_arc dag ~src ~dst, Dag_legacy.find_arc legacy ~src ~dst) with
      | None, None -> ()
      | Some a, Some l ->
          (* kinds may differ on equal-latency ties (the legacy bug);
             latency coalescing is order-independent in both *)
          if a.Dag.latency <> l.Dag_legacy.latency then
            Alcotest.failf "latency diverged at %d -> %d" src dst
      | Some _, None -> Alcotest.failf "phantom arena arc %d -> %d" src dst
      | None, Some _ -> Alcotest.failf "arena lost arc %d -> %d" src dst
    done
  done

(* ------------------------------------------------------------------ *)
(* adjacency walks *)

let walk_succ dag i =
  let acc = ref [] in
  Dag.iter_succ dag i (fun dst l k -> acc := (i, dst, l, k) :: !acc);
  List.rev !acc

let walk_pred dag i =
  let acc = ref [] in
  Dag.iter_pred dag i (fun src l k -> acc := (src, i, l, k) :: !acc);
  List.rev !acc

(* The walks against the whole-graph queries: the succ walks, node by
   node, replay [iter_arcs] exactly (same arcs, same order) and [arcs]
   in reverse; the pred walks see the same arc set, each arc once from
   each end; [find_arc] agrees on every arc; the folds visit what the
   iterators visit, in the same order; visit counts match the column-`a`
   counters.  Returns the per-node walks for order checks. *)
let check_walks name dag =
  let n = Dag.length dag in
  let as_tuple (a : Dag.arc) = (a.Dag.src, a.Dag.dst, a.Dag.latency, a.Dag.kind) in
  let succs = Array.init n (walk_succ dag) and preds = Array.init n (walk_pred dag) in
  let visited = ref [] in
  Dag.iter_arcs (fun a -> visited := as_tuple a :: !visited) dag;
  let in_iter_order = List.rev !visited in
  if List.concat (Array.to_list succs) <> in_iter_order then
    Alcotest.failf "%s: succ walks differ from iter_arcs" name;
  if List.map as_tuple (Dag.arcs dag) <> List.rev in_iter_order then
    Alcotest.failf "%s: arcs is not iter_arcs reversed" name;
  let sorted l = List.sort compare l in
  if sorted (List.concat (Array.to_list preds)) <> sorted in_iter_order then
    Alcotest.failf "%s: pred walks differ from the arc set" name;
  check_int (name ^ ": n_arcs") (List.length in_iter_order) (Dag.n_arcs dag);
  List.iter
    (fun (src, dst, latency, kind) ->
      match Dag.find_arc dag ~src ~dst with
      | Some a when a.Dag.latency = latency && a.Dag.kind = kind -> ()
      | _ -> Alcotest.failf "%s: find_arc disagrees on %d -> %d" name src dst)
    in_iter_order;
  for i = 0 to n - 1 do
    let fs =
      List.rev (Dag.fold_succ dag i (fun acc d l k -> (i, d, l, k) :: acc) [])
    and fp =
      List.rev (Dag.fold_pred dag i (fun acc s l k -> (s, i, l, k) :: acc) [])
    in
    if fs <> succs.(i) || fp <> preds.(i) then
      Alcotest.failf "%s: node %d folds differ from iterators" name i;
    if List.length succs.(i) <> Dag.n_children dag i
       || List.length preds.(i) <> Dag.n_parents dag i
    then Alcotest.failf "%s: node %d walk lengths differ from counters" name i
  done;
  (succs, preds)

(* Insert [ops] into a fresh DAG over [n] nops alongside a model of the
   coalescing rule: a pair's first insertion fixes its chain position
   (most recent first, at both ends); a later insertion raises the
   latency, or keeps it and strengthens the kind.  Both walks must
   report every pair once, in chain order, with its upgraded value. *)
let check_against_model name n ops =
  let dag = Dag.create ~model (nop_block n) in
  let value = Hashtbl.create 64 and first = ref [] in
  List.iter
    (fun (src, dst, kind, latency) ->
      let fresh = Dag.add_arc dag ~src ~dst ~kind ~latency in
      match Hashtbl.find_opt value (src, dst) with
      | None ->
          if not fresh then Alcotest.failf "%s: %d -> %d not fresh" name src dst;
          Hashtbl.replace value (src, dst) (latency, kind);
          first := (src, dst) :: !first
      | Some (l, k) ->
          if fresh then Alcotest.failf "%s: %d -> %d not coalesced" name src dst;
          if latency > l || (latency = l && rank kind > rank k)
          then Hashtbl.replace value (src, dst) (latency, kind))
    ops;
  let succs, preds = check_walks name dag in
  (* !first is most recent first — the chain order at both ends *)
  let expect keep =
    List.filter_map
      (fun (src, dst) ->
        if keep src dst then
          let l, k = Hashtbl.find value (src, dst) in
          Some (src, dst, l, k)
        else None)
      !first
  in
  for i = 0 to n - 1 do
    if succs.(i) <> expect (fun src _ -> src = i) then
      Alcotest.failf "%s: node %d succ walk order or values" name i;
    if preds.(i) <> expect (fun _ dst -> dst = i) then
      Alcotest.failf "%s: node %d pred walk order or values" name i
  done

(* Replay a built DAG's arcs in a shuffled order, each first inserted
   weaker — a lower latency, or the same latency as a CTL arc — and
   upgraded to its real value only after every pair exists, so the
   upgrades land on arcs deep inside both chains. *)
let upgrade_ops rng dag =
  let arcs = Array.of_list (Dag.arcs dag) in
  for i = Array.length arcs - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let t = arcs.(i) in
    arcs.(i) <- arcs.(j);
    arcs.(j) <- t
  done;
  let firsts = ref [] and upgrades = ref [] in
  Array.iter
    (fun (a : Dag.arc) ->
      let real = (a.Dag.src, a.Dag.dst, a.Dag.kind, a.Dag.latency) in
      (match Prng.int rng 3 with
      | 0 when a.Dag.latency > 0 ->
          firsts := (a.Dag.src, a.Dag.dst, a.Dag.kind, a.Dag.latency - 1) :: !firsts;
          upgrades := real :: !upgrades
      | 1 when a.Dag.kind <> Dep.Ctl ->
          firsts := (a.Dag.src, a.Dag.dst, Dep.Ctl, a.Dag.latency) :: !firsts;
          upgrades := real :: !upgrades
      | _ -> firsts := real :: !firsts))
    arcs;
  List.rev_append !firsts (List.rev !upgrades)

let test_walks_complete_and_current () =
  let rng = Prng.create 2718 in
  List.iter
    (fun b ->
      List.iter
        (fun alg ->
          let dag = Builder.build alg Opts.default b in
          let name =
            Printf.sprintf "block %d %s" b.Block.id (Builder.to_string alg)
          in
          ignore (check_walks name dag);
          check_against_model (name ^ " upgraded replay") (Dag.length dag)
            (upgrade_ops rng dag))
        Builder.all)
    (Lazy.force differential_blocks);
  (* dense random insertion far past the 64-arc index threshold, with
     every kind of coalesce mixed in *)
  let n = 300 and kinds = [| Dep.Raw; Dep.War; Dep.Waw; Dep.Ctl |] in
  let ops =
    List.init 2000 (fun _ ->
        let src = Prng.int rng (n - 1) in
        let dst = src + 1 + Prng.int rng (min 8 (n - src - 1)) in
        (src, dst, kinds.(Prng.int rng 4), 1 + Prng.int rng 4))
  in
  check_against_model "dense random" n ops

(* ------------------------------------------------------------------ *)
(* fingerprint *)

let test_fingerprint_canonical () =
  let mk order =
    let dag = Dag.create ~model (nop_block 8) in
    List.iter
      (fun (src, dst, kind, latency) ->
        ignore (Dag.add_arc dag ~src ~dst ~kind ~latency))
      order;
    Dag.fingerprint dag
  in
  let arcs =
    [ (0, 1, Dep.Raw, 2); (1, 2, Dep.War, 1); (0, 3, Dep.Waw, 1);
      (2, 5, Dep.Raw, 4); (4, 6, Dep.Ctl, 1); (3, 7, Dep.Raw, 2) ]
  in
  check_bool "insertion-order independent" true (mk arcs = mk (List.rev arcs));
  check_bool "arc-set sensitive" false (mk arcs = mk (List.tl arcs));
  check_bool "latency sensitive" false
    (mk [ (0, 1, Dep.Raw, 2) ] = mk [ (0, 1, Dep.Raw, 3) ]);
  check_bool "kind sensitive" false
    (mk [ (0, 1, Dep.Raw, 2) ] = mk [ (0, 1, Dep.Waw, 2) ]);
  (* node count is part of the digest even with no arcs *)
  check_bool "node-count sensitive" false
    (Dag.fingerprint (Dag.create ~model (nop_block 3))
    = Dag.fingerprint (Dag.create ~model (nop_block 4)));
  (* stable across repeated builds of the same block *)
  let b = random_block 31415 in
  check_bool "deterministic across builds" true
    (Dag.fingerprint (Builder.build Builder.Table_forward Opts.default b)
    = Dag.fingerprint (Builder.build Builder.Table_forward Opts.default b))

(* ------------------------------------------------------------------ *)
(* allocation-regression guard *)

(* The arena's raison d'être: table-forward construction over the full
   Table-3 corpus must stay at least 10x below the pre-arena allocation
   profile.  The budget is the seed baseline (14,679,844 minor words for
   the dag_build phase, BENCH_obs.json) divided by 10; the landed arena
   uses ~1.05M words, so this also catches any regression past ~1.4x
   the landed cost.  The measurement is exact and deterministic:
   [Gc.minor_words] counts every word the builds allocate on this
   domain, and both the corpus and the build path are deterministic. *)
let test_allocation_budget () =
  let budget_words = 1_470_000.0 in
  let blocks = List.concat_map snd (Profiles.corpus Profiles.benchmarks) in
  let opts = Opts.default in
  (* warm up the per-domain scratch so growth costs are not charged *)
  ignore (Builder.build Builder.Table_forward opts (List.hd blocks));
  let m0 = Gc.minor_words () in
  List.iter (fun b -> ignore (Builder.build Builder.Table_forward opts b)) blocks;
  let words = Gc.minor_words () -. m0 in
  if words > budget_words then
    Alcotest.failf
      "corpus table-forward allocated %.0f minor words (budget %.0f)" words
      budget_words

let suite =
  [ quick "find_arc alias regression" test_find_arc_alias_regression;
    quick "kind tie-break deterministic" test_kind_tie_break_deterministic;
    quick "legacy kind order-dependent" test_legacy_kind_order_dependent;
    quick "replay differential" test_replay_differential;
    quick "table-forward end to end" test_table_fwd_end_to_end;
    quick "n2 directions agree" test_n2_directions_agree;
    quick "arc index threshold crossing" test_arc_index_threshold_crossing;
    quick "arc index random differential" test_arc_index_random_differential;
    quick "adjacency walks complete and current" test_walks_complete_and_current;
    quick "fingerprint canonical" test_fingerprint_canonical;
    Alcotest.test_case "corpus allocation budget" `Slow test_allocation_budget ]
