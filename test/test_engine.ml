(** The engine's static priority against the {!Engine_legacy} yardstick,
    and the static pass's walk selection against the full pass.

    - Engine: over random blocks (0/1-insn blocks and blocks past the
      64-arc index included), section 6, the six published configs, an
      all-static priority function, a static prefix before dynamic keys
      and a key list too wide to pack into one int, each in both
      directions, and a seeded cross-block chain: the orders and the
      summed [heur_dynamic] counts (picks, candidates, stall cycles)
      equal the legacy pick's; [run_traced]'s decisions (time,
      candidates in list order, trail, chosen, tie-break) equal the
      list-based trail's, and the decisiveness registry after [run] under
      explain equals the one the trail feeds.  A hand-built priority-fn
      block pins one overruled decision.
    - Static pass: for each of the 26 heuristics, singly and as each
      published key set, [compute_for] fills the columns of the walks
      their passes name with [compute]'s values, under both traversals,
      and leaves the others zero. *)

open Dagsched
open Helpers

(* ------------------------------------------------------------------ *)
(* engine differential *)

let heuristics (config : Engine.config) =
  List.map (fun k -> k.Engine.heuristic) config.Engine.keys

let winnow keys =
  { Engine.direction = Dyn_state.Forward; mode = Engine.Winnowing; keys }

let configs =
  [ ("section 6", Batch.section6.Batch.engine);
    ( "priority fn, all static",
      { Engine.direction = Dyn_state.Forward; mode = Engine.Priority_fn;
        keys =
          [ Engine.key Heuristic.Max_delay_to_leaf;
            Engine.key Heuristic.Num_children;
            Engine.key Heuristic.Original_order ] } );
    ( "static prefix, then dynamic keys",
      winnow
        [ Engine.key Heuristic.Max_path_to_leaf;
          Engine.key Heuristic.Earliest_execution_time;
          Engine.key Heuristic.Alternate_type;
          Engine.key Heuristic.Execution_time;
          Engine.key Heuristic.Num_uncovered_children ] );
    (* a tie-prone key, then 44 keys whose range is the block size:
       past a few dozen the ranges overflow an int, and the keys left
       over winnow the front *)
    ( "too wide for one int",
      winnow
        (Engine.key Heuristic.Execution_time
        :: List.init 44 (fun j ->
               Engine.key
                 ~sense:(if j mod 2 = 0 then Heuristic.Minimize else Heuristic.Maximize)
                 Heuristic.Original_order)) ) ]
  @ List.map (fun s -> (s.Published.short, Published.engine_config s)) Published.all

let both_directions (name, (config : Engine.config)) =
  [ (name ^ " forward", { config with Engine.direction = Dyn_state.Forward });
    (name ^ " backward", { config with Engine.direction = Dyn_state.Backward }) ]

let all_configs = List.concat_map both_directions configs

(* the heur_dynamic span args, summed over a traced run of [f] *)
let traced_counts f =
  Trace.reset ();
  Trace.enable ();
  let result = Fun.protect ~finally:Trace.disable f in
  let spans = List.filter (fun s -> s.Trace.name = "heur_dynamic") (Trace.snapshot ()) in
  Trace.reset ();
  let sum k =
    List.fold_left
      (fun acc s ->
        match List.assoc_opt k s.Trace.args with
        | Some (Json.Int v) -> acc + v
        | _ -> acc)
      0 spans
  in
  ( result,
    { Engine_legacy.picks = sum "picks"; candidates = sum "candidates";
      stall_cycles = sum "stall_cycles" } )

let counts_to_string (c : Engine_legacy.counts) =
  Printf.sprintf "picks %d, candidates %d, stalls %d" c.Engine_legacy.picks
    c.Engine_legacy.candidates c.Engine_legacy.stall_cycles

let order_to_string o = String.concat " " (List.map string_of_int (Array.to_list o))

(* The registry snapshot after [f], under a fresh, enabled registry. *)
let explain_snapshot f =
  Explain.reset ();
  Explain.enable ();
  Fun.protect
    ~finally:(fun () ->
      Explain.disable ();
      Explain.reset ())
    (fun () ->
      f ();
      Explain.snapshot ())

(* What the registry holds once the legacy trail's decisions are fed in. *)
let legacy_snapshot config traced =
  explain_snapshot (fun () ->
      let cell =
        Explain.cell ~signature:(Engine.signature config) ~keys:(Engine.key_labels config)
      in
      List.iter
        (fun { Engine_legacy.decision = d; overruled } ->
          let ncand = List.length d.Engine.candidates in
          Explain.record cell ~candidates:ncand
            ~survivor_counts:(List.map (fun (_, _, s) -> List.length s) d.Engine.trail)
            ~forced:(ncand = 1) ~tie_break:d.Engine.tie_break ~overruled)
        traced)

let ints l = String.concat ", " (List.map string_of_int l)

let decision_to_string (d : Engine.decision) =
  Printf.sprintf "t=%d {%s} [%s] -> %d%s" d.Engine.time (ints d.Engine.candidates)
    (String.concat "; "
       (List.map
          (fun (h, best, s) -> Printf.sprintf "%s %d {%s}" (Heuristic.to_string h) best (ints s))
          d.Engine.trail))
    d.Engine.chosen
    (if d.Engine.tie_break then " (tie-break)" else "")

let rec first_diff i got want =
  match (got, want) with
  | g :: gs, w :: ws ->
      if g = w then first_diff (i + 1) gs ws
      else
        Printf.sprintf "decision %d: %s, legacy %s" i (decision_to_string g)
          (decision_to_string w)
  | _ -> Printf.sprintf "%d decisions, legacy %d" (i + List.length got) (i + List.length want)

(* The engine as the pipeline runs it (compute_for's annotations) against
   the legacy pick over the full static pass: the orders and counts of a
   bare, a traced and a recorded run, the recorded decisions against the
   list-based trail's, and the registry under explain against the one the
   trail feeds.  [Error] names the first config that differs. *)
let differ ?seed ?(configs = all_configs) ~opts block =
  let rec go = function
    | [] -> Ok ()
    | (name, config) :: rest ->
        let dag = Builder.build Builder.Table_forward opts block in
        let full = Static_pass.compute dag in
        let legacy, want = Engine_legacy.run ?seed config ~annot:full dag in
        let _, trail = Engine_legacy.run_traced ?seed config ~annot:full dag in
        let annot = Static_pass.compute_for (heuristics config) dag in
        let order = Engine.run ?seed config ~annot dag in
        let traced, got = traced_counts (fun () -> Engine.run ?seed config ~annot dag) in
        let recorded, decisions = Engine.run_traced ?seed config ~annot dag in
        let want_decisions = List.map (fun t -> t.Engine_legacy.decision) trail in
        if order <> legacy || traced <> legacy || recorded <> legacy then
          Error
            (Printf.sprintf "%s: order %s, legacy %s" name (order_to_string order)
               (order_to_string legacy))
        else if got <> want then
          Error
            (Printf.sprintf "%s: counts %s, legacy %s" name (counts_to_string got)
               (counts_to_string want))
        else if decisions <> want_decisions then
          Error (name ^ ": " ^ first_diff 0 decisions want_decisions)
        else if
          not
            (Explain.equal
               (explain_snapshot (fun () -> ignore (Engine.run ?seed config ~annot dag)))
               (legacy_snapshot config trail))
        then Error (name ^ ": decisiveness registry differs from the trail's")
        else go rest
  in
  go configs

let models = [ Opts.default; { Opts.default with Opts.model = Latency.deep_fp } ]

let check_block block =
  List.iter
    (fun opts ->
      match differ ~opts block with
      | Ok () -> ()
      | Error e -> Alcotest.failf "block %d (%d insns): %s" block.Block.id (Block.length block) e)
    models

let prop_engine_matches_legacy seed =
  let block = random_block seed in
  List.for_all
    (fun opts ->
      match differ ~opts block with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_report e)
    models

let test_edge_blocks () =
  check_block { Block.id = 0; insns = [||] };
  check_block (block_of_asm "fdivd %f0, %f2, %f4");
  (* large enough that the table builders' DAGs pass 64 arcs *)
  let most_arcs = ref 0 in
  for s = 0 to 3 do
    let rng = Prng.create (900 + s) in
    let params = if s mod 2 = 0 then Gen.fp_straightline else Gen.int_code in
    let block = Gen.block rng ~params ~id:s ~size:(80 + (30 * s)) () in
    let dag = Builder.build Builder.Table_forward Opts.default block in
    most_arcs := max !most_arcs (Dag.n_arcs dag);
    check_block block
  done;
  check_bool "some DAG has more than 64 arcs" true (!most_arcs > 64)

(* A seeded chain: each block inherits the previous one's in-flight
   latencies, so picks wait on seeded release times. *)
let test_seeded_chain () =
  let opts = { Opts.default with Opts.model = Latency.deep_fp } in
  let rng = Prng.create 41 in
  let blocks =
    List.init 8 (fun id ->
        Gen.block rng ~params:Gen.fp_loops ~id ~size:(4 + (5 * id)) ())
  in
  List.iter
    (fun (name, config) ->
      let (scheds, _), got =
        traced_counts (fun () -> Global.schedule_chain ~config ~opts blocks)
      in
      let residue = ref Global.empty_residue in
      let want = ref { Engine_legacy.picks = 0; candidates = 0; stall_cycles = 0 } in
      let stalled = ref false in
      List.iter2
        (fun block (s : Schedule.t) ->
          let dag = Builder.build Builder.Table_forward opts block in
          let legacy, c =
            Engine_legacy.run ~seed:(Global.seed_of !residue) config
              ~annot:(Static_pass.compute dag) dag
          in
          if legacy <> s.Schedule.order then
            Alcotest.failf "%s, block %d: order %s, legacy %s" name block.Block.id
              (order_to_string s.Schedule.order) (order_to_string legacy);
          (match
             differ ~seed:(Global.seed_of !residue) ~configs:[ (name, config) ] ~opts
               block
           with
          | Ok () -> ()
          | Error e -> Alcotest.failf "block %d: %s" block.Block.id e);
          if !residue.Global.pending <> [] && c.Engine_legacy.stall_cycles > 0 then
            stalled := true;
          want :=
            { Engine_legacy.picks = !want.picks + c.picks;
              candidates = !want.candidates + c.candidates;
              stall_cycles = !want.stall_cycles + c.stall_cycles };
          residue := Global.exit_residue (Schedule.make dag legacy))
        blocks scheds;
      if got <> !want then
        Alcotest.failf "%s: counts %s, legacy %s" name (counts_to_string got)
          (counts_to_string !want);
      check_bool (name ^ ": a seeded block stalls") true !stalled)
    all_configs

(* A priority function whose second rank overflows its 10x weight: node 0
   has more children (rank 1), but node 1's divide chain has far more
   delay to a leaf (rank 2), so the weighted sum issues node 1 first
   while the restricted narrowing keeps only node 0. *)
let overruled_asm = "
  add %o1, 1, %o2
  fdivd %f0, %f2, %f4
  add %o2, 1, %o3
  add %o2, 2, %o4
  fdivd %f4, %f6, %f8
"

let test_overruled_pinned () =
  let dag = dag_of_asm ~opts:figure1_opts overruled_asm in
  let annot = Static_pass.compute dag in
  let config =
    { Engine.direction = Dyn_state.Forward; mode = Engine.Priority_fn;
      keys = [ Engine.key Heuristic.Num_children; Engine.key Heuristic.Max_delay_to_leaf ] }
  in
  let st = Dyn_state.create dag Dyn_state.Forward in
  let value h i = Evaluate.value h ~annot ~st i in
  let weighted i =
    (10 * value Heuristic.Num_children i) + value Heuristic.Max_delay_to_leaf i
  in
  check_bool "rank 1 prefers node 0" true
    (value Heuristic.Num_children 0 > value Heuristic.Num_children 1);
  check_bool "the weighted sum prefers node 1" true (weighted 1 > weighted 0);
  let overruled stats =
    List.fold_left (fun acc s -> acc + s.Explain.overruled) 0 stats
  in
  let chosen = ref (-1) in
  let picked = explain_snapshot (fun () -> chosen := Engine.pick config ~annot ~st [ 0; 1 ]) in
  check_int "pick: the weighted-sum winner" 1 !chosen;
  check_int "pick: one overruled decision" 1 (overruled picked);
  let order = ref [||] in
  let ran = explain_snapshot (fun () -> order := Engine.run config ~annot dag) in
  check_int "run: the weighted-sum winner issues first" 1 !order.(0);
  check_int "run: one overruled decision" 1 (overruled ran);
  (* the list-based trail agrees *)
  match differ ~configs:[ ("overflow", config) ] ~opts:figure1_opts (block_of_asm overruled_asm) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* static pass: the walks compute_for runs *)

type column = { label : string; get : Annot.t -> int array }

let col label get = { label; get }

let forward_columns =
  [ col "max path from root" (fun a -> a.Annot.max_path_from_root);
    col "max delay from root" (fun a -> a.Annot.max_delay_from_root);
    col "EST" (fun a -> a.Annot.est) ]

let backward_columns =
  [ col "max path to leaf" (fun a -> a.Annot.max_path_to_leaf);
    col "max delay to leaf" (fun a -> a.Annot.max_delay_to_leaf);
    col "LST" (fun a -> a.Annot.lst) ]

let slack_column = col "slack" (fun a -> a.Annot.slack)

let descendant_columns =
  [ col "#descendants" (fun a -> a.Annot.num_descendants);
    col "sum exec of descendants" (fun a -> a.Annot.sum_exec_of_descendants) ]

let register_columns =
  [ col "registers born" (fun a -> a.Annot.registers_born);
    col "registers killed" (fun a -> a.Annot.registers_killed);
    col "liveness" (fun a -> a.Annot.liveness) ]

(* The columns [compute_for hs] fills, from Table 1's passes: the forward
   walk's, the backward walk's, slack when both run, and the costly
   groups the heuristics read; every other column stays zero. *)
let filled hs =
  let pass p = List.exists (fun h -> Heuristic.calc_pass h = p) hs in
  let fwd = pass Heuristic.F || pass Heuristic.FB in
  let bwd = pass Heuristic.B || pass Heuristic.FB in
  let req = Static_pass.requirements_of hs in
  ( fwd || bwd,
    (if fwd then forward_columns else [])
    @ (if bwd then backward_columns else [])
    @ (if fwd && bwd then [ slack_column ] else [])
    @ (if req.Static_pass.descendants then descendant_columns else [])
    @ if req.Static_pass.registers then register_columns else [] )

let all_columns =
  [ col "exec time" (fun a -> a.Annot.exec_time) ]
  @ forward_columns @ backward_columns @ [ slack_column ] @ descendant_columns
  @ register_columns

let key_sets =
  List.map (fun h -> (Heuristic.to_string h, [ h ])) Heuristic.all_26
  @ List.map (fun s -> (s.Published.short, Published.heuristics_of s)) Published.all
  @ [ ("section 6", heuristics Batch.section6.Batch.engine) ]

let check_compute_for dag =
  List.iter
    (fun traversal ->
      let full = Static_pass.compute ~traversal dag in
      List.iter
        (fun (name, hs) ->
          let a = Static_pass.compute_for ~traversal hs dag in
          let walks, cols = filled hs in
          let zero = Array.make (Dag.length dag) 0 in
          List.iter
            (fun c ->
              let want = if c.label = "exec time" || List.memq c cols then c.get full else zero in
              if c.get a <> want then
                Alcotest.failf "%s: %s %s" name c.label
                  (if want == zero then "not left zero" else "differs from compute"))
            all_columns;
          (* every value the keys read matches the full pass *)
          let st = Dyn_state.create dag Dyn_state.Forward in
          List.iter
            (fun h ->
              for i = 0 to Dag.length dag - 1 do
                if Evaluate.value h ~annot:a ~st i <> Evaluate.value h ~annot:full ~st i then
                  Alcotest.failf "%s: %s of node %d" name (Heuristic.to_string h) i
              done)
            hs;
          if walks then
            check_int (name ^ ": critical path") full.Annot.critical_path_length
              a.Annot.critical_path_length)
        key_sets)
    [ Static_pass.Reverse_walk; Static_pass.Level_lists ]

let test_compute_for_columns () =
  List.iter
    (fun seed ->
      check_compute_for (Builder.build Builder.Table_forward Opts.default (random_block seed)))
    (List.init 25 (fun s -> 7 * s));
  check_compute_for (dag_of_asm "fdivd %f0, %f2, %f4");
  check_compute_for (Builder.build Builder.Table_forward Opts.default { Block.id = 0; insns = [||] })

let suite =
  [ qcheck ~count:150 "static priority = legacy pick, random blocks" arb_block
      prop_engine_matches_legacy;
    quick "static priority = legacy pick, 0/1-insn and wide blocks" test_edge_blocks;
    quick "static priority = legacy pick, seeded chain" test_seeded_chain;
    quick "priority overflow counts one overruled decision" test_overruled_pinned;
    quick "compute_for fills the walks its keys name" test_compute_for_columns ]
