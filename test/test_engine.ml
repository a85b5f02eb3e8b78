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
      list-based trail's, and their decisiveness fold equals the
      {!Explain_legacy} registry fed by the list-based trail.  A
      hand-built priority-fn block pins one overruled decision.
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

(* What the registry held once the legacy trail's decisions were fed
   in, overruled as the trail saw it. *)
let legacy_snapshot config traced =
  let reg = Explain_legacy.create () in
  let cell =
    Explain_legacy.cell reg ~signature:(Engine.signature config)
      ~keys:(Engine.key_labels config)
  in
  List.iter
    (fun { Engine_legacy.decision = d; overruled } ->
      let ncand = List.length d.Engine.candidates in
      Explain_legacy.record cell ~candidates:ncand
        ~survivor_counts:(List.map (fun (_, _, s) -> List.length s) d.Engine.trail)
        ~forced:(ncand = 1) ~tie_break:d.Engine.tie_break ~overruled)
    traced;
  Explain_legacy.snapshot reg

(* The fold over a run's decisions, as a snapshot lists it: nothing for
   a block without decisions. *)
let fold_snapshot config decisions =
  let st = decisiveness config (List.map (explain_decision config ~block:0) decisions) in
  if st.Explain.decisions = 0 then [] else [ st ]

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
   list-based trail's, and their decisiveness fold against the registry
   the trail feeds.  [Error] names the first config that differs. *)
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
          not (Explain.equal (fold_snapshot config decisions) (legacy_snapshot config trail))
        then Error (name ^ ": decisiveness fold differs from the trail's registry")
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
  check_int "pick: the weighted-sum winner" 1 (Engine.pick config ~annot ~st [ 0; 1 ]);
  let order, decisions = Engine.run_traced config ~annot dag in
  check_int "run: the weighted-sum winner issues first" 1 order.(0);
  let st = decisiveness config (List.map (explain_decision config ~block:0) decisions) in
  check_int "run: one overruled decision" 1 st.Explain.overruled;
  (* the list-based trail agrees *)
  match differ ~configs:[ ("overflow", config) ] ~opts:figure1_opts (block_of_asm overruled_asm) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* static pass: the columns compute_for allocates *)

(* An annotation column and the heuristic that reads it ([None]: exec
   time, which every pass fills). *)
type column = { label : string; reads : Heuristic.t option; get : Annot.t -> int array }

let col ?reads label get = { label; reads; get }

let all_columns =
  [ col "exec time" (fun a -> a.Annot.exec_time);
    col ~reads:Heuristic.Max_path_from_root "max path from root" (fun a ->
        a.Annot.max_path_from_root);
    col ~reads:Heuristic.Max_delay_from_root "max delay from root" (fun a ->
        a.Annot.max_delay_from_root);
    col ~reads:Heuristic.Earliest_start_time "EST" (fun a -> a.Annot.est);
    col ~reads:Heuristic.Max_path_to_leaf "max path to leaf" (fun a ->
        a.Annot.max_path_to_leaf);
    col ~reads:Heuristic.Max_delay_to_leaf "max delay to leaf" (fun a ->
        a.Annot.max_delay_to_leaf);
    col ~reads:Heuristic.Latest_start_time "LST" (fun a -> a.Annot.lst);
    col ~reads:Heuristic.Slack "slack" (fun a -> a.Annot.slack);
    col ~reads:Heuristic.Num_descendants "#descendants" (fun a -> a.Annot.num_descendants);
    col ~reads:Heuristic.Sum_exec_of_descendants "sum exec of descendants" (fun a ->
        a.Annot.sum_exec_of_descendants);
    col ~reads:Heuristic.Registers_born "registers born" (fun a -> a.Annot.registers_born);
    col ~reads:Heuristic.Registers_killed "registers killed" (fun a ->
        a.Annot.registers_killed);
    col ~reads:Heuristic.Liveness "liveness" (fun a -> a.Annot.liveness) ]

(* Whether [compute_for hs] runs a walk: some heuristic's Table-1 pass is
   [F], [B] or [FB]. *)
let runs_a_walk hs =
  List.exists
    (fun h ->
      match Heuristic.calc_pass h with
      | Heuristic.F | Heuristic.B | Heuristic.FB -> true
      | Heuristic.A | Heuristic.V -> false)
    hs

let key_sets =
  List.map (fun h -> (Heuristic.to_string h, [ h ])) Heuristic.all_26
  @ List.map (fun s -> (s.Published.short, Published.heuristics_of s)) Published.all
  @ [ ("section 6", heuristics Batch.section6.Batch.engine) ]

(* [compute_for hs] holds exec time and the columns [hs] read, each equal
   to the full pass's; every other column is empty. *)
let check_compute_for dag =
  List.iter
    (fun traversal ->
      let full = Static_pass.compute ~traversal dag in
      List.iter
        (fun (name, hs) ->
          let a = Static_pass.compute_for ~traversal hs dag in
          List.iter
            (fun c ->
              let read = match c.reads with None -> true | Some h -> List.mem h hs in
              let want = if read then c.get full else [||] in
              if c.get a <> want then
                Alcotest.failf "%s: %s %s" name c.label
                  (if read then "differs from compute" else "not left empty"))
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
          if runs_a_walk hs then
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

(* Reading a column the pass did not compute raises, naming the
   heuristic, for every column heuristic; exec time is always there. *)
let test_uncomputed_column_raises () =
  let dag = Builder.build Builder.Table_forward Opts.default (random_block 3) in
  let st = Dyn_state.create dag Dyn_state.Forward in
  let exec_only = Static_pass.compute_for [ Heuristic.Execution_time ] dag in
  check_int "exec time is filled" (Static_pass.compute dag).Annot.exec_time.(0)
    (Evaluate.value Heuristic.Execution_time ~annot:exec_only ~st 0);
  List.iter
    (fun c ->
      match c.reads with
      | None -> ()
      | Some h -> (
          let label = Heuristic.to_string h in
          match Evaluate.value h ~annot:exec_only ~st 0 with
          | v -> Alcotest.failf "%s: read %d from an empty column" label v
          | exception Invalid_argument msg ->
              if not (contains msg label) then
                Alcotest.failf "%s: the message %S does not name it" label msg))
    all_columns

(* ------------------------------------------------------------------ *)
(* the engine's per-domain scratch *)

let annotated config block =
  let dag = Builder.build Builder.Table_forward Opts.default block in
  (dag, Static_pass.compute_for (heuristics config) dag)

let section6 = Batch.section6.Batch.engine

let scratch_configs =
  [ ("section 6", section6);
    ("section 6 backward", { section6 with Engine.direction = Dyn_state.Backward });
    ("schlansker", Published.engine_config Published.schlansker) ]

(* The order of a run in a domain of its own, whose scratch no run has
   touched. *)
let fresh_run config ~annot dag =
  Domain.join (Domain.spawn (fun () -> Engine.run config ~annot dag))

(* A DAG under a model whose [fp_busy], which the dynamic state calls at
   every issue, runs [hook] while [armed] is set. *)
let hooked_dag armed hook block =
  let base = Latency.simple_risc in
  let model =
    { base with
      Latency.fp_busy = (fun insn -> if !armed then hook (); base.Latency.fp_busy insn) }
  in
  Builder.build Builder.Table_forward (Opts.with_model model Opts.default) block

(* A run nested in a seed, or in a callback that fires at every issue,
   and a run nested in a traced run: each order equals its un-nested
   run. *)
let test_nested_runs () =
  List.iter
    (fun (name, config) ->
      let inner_dag, inner_annot = annotated config (random_block 11) in
      let inner () = Engine.run config ~annot:inner_annot inner_dag in
      let inner_want = inner () in
      let check_inner what got =
        if got <> inner_want then Alcotest.failf "%s: %s: nested order differs" name what
      in
      let armed = ref false and nested = ref 0 in
      let dag =
        hooked_dag armed
          (fun () ->
            incr nested;
            check_inner "issue callback" (inner ()))
          (random_block 12)
      in
      let annot = Static_pass.compute_for (heuristics config) dag in
      let want = Engine.run config ~annot dag in
      armed := true;
      let got = Engine.run config ~annot dag in
      armed := false;
      check_int (name ^ ": one nested run per issue") (Dag.length dag) !nested;
      if got <> want then Alcotest.failf "%s: order around nested runs differs" name;
      let got = Engine.run ~seed:(fun _ -> check_inner "seed" (inner ())) config ~annot dag in
      if got <> want then Alcotest.failf "%s: order around a nested seed differs" name;
      let got, _ =
        Engine.run_traced ~seed:(fun _ -> check_inner "traced seed" (inner ())) config ~annot dag
      in
      if got <> want then Alcotest.failf "%s: traced order around a nested seed differs" name)
    scratch_configs

(* A run that raises mid-block releases the scratch: the next runs are
   correct and allocate no more than before the raise. *)
let test_raise_releases_scratch () =
  let armed = ref false in
  let block = random_block 21 in
  let dag = hooked_dag armed (fun () -> raise Exit) block in
  let annot = Static_pass.compute_for (heuristics section6) dag in
  let other, other_annot = annotated section6 (random_block 22) in
  let want = Engine.run section6 ~annot dag in
  let other_want = Engine.run section6 ~annot:other_annot other in
  let words () =
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (Engine.run section6 ~annot dag));
    Gc.minor_words () -. w0
  in
  let before = words () in
  armed := true;
  (match Engine.run section6 ~annot dag with
  | _ -> Alcotest.fail "the issue callback did not raise"
  | exception Exit -> ());
  armed := false;
  check_bool "the next run on another block" true
    (Engine.run section6 ~annot:other_annot other = other_want);
  check_bool "the next run on the same block" true (Engine.run section6 ~annot dag = want);
  let after = words () in
  if after > before then
    Alcotest.failf "a run after the raise allocated %.0f words, %.0f before: scratch not released"
      after before

(* Blocks of falling, then rising size on one domain: every order equals
   a run on fresh state, so no entry a larger block left behind is
   read. *)
let test_scratch_across_sizes () =
  let fpppp = Profiles.generate Profiles.fpppp in
  let sized n =
    match List.find_opt (fun b -> Block.length b = n) fpppp with
    | Some b -> b
    | None -> Alcotest.failf "fpppp has no %d-insn block" n
  in
  let blocks =
    [ sized 11_750; block_of_asm figure1_asm; { Block.id = 0; insns = [||] };
      block_of_asm "fdivd %f0, %f2, %f4"; sized 1_150 ]
  in
  let runs =
    List.concat_map
      (fun (name, config) ->
        List.map
          (fun b ->
            let dag, annot = annotated config b in
            (Printf.sprintf "%s, %d insns" name (Block.length b), config, annot, dag))
          blocks)
      scratch_configs
  in
  let want = List.map (fun (_, config, annot, dag) -> fresh_run config ~annot dag) runs in
  List.iter2
    (fun (label, config, annot, dag) want ->
      if Engine.run config ~annot dag <> want then
        Alcotest.failf "%s: differs from a run on fresh state" label)
    runs want;
  (* the dynamic state reads as a fresh one too *)
  let s = Dyn_state.scratch () in
  let big, _ = annotated section6 (sized 1_150) in
  let st = Dyn_state.create_in s big Dyn_state.Forward in
  Dyn_state.schedule st 0 ~at:5;
  List.iter
    (fun b ->
      let dag, _ = annotated section6 b in
      let n = Dag.length dag in
      let reused = Dyn_state.create_in s dag Dyn_state.Backward in
      let fresh = Dyn_state.create dag Dyn_state.Backward in
      let same label a b = check_bool label true (Array.sub a 0 n = b) in
      same "scheduled" reused.Dyn_state.scheduled fresh.Dyn_state.scheduled;
      same "sched_time" reused.Dyn_state.sched_time fresh.Dyn_state.sched_time;
      same "unscheduled parents" reused.Dyn_state.unscheduled_parents
        fresh.Dyn_state.unscheduled_parents;
      same "unscheduled children" reused.Dyn_state.unscheduled_children
        fresh.Dyn_state.unscheduled_children;
      same "earliest exec" reused.Dyn_state.earliest_exec fresh.Dyn_state.earliest_exec;
      check_bool "unit free" true (reused.Dyn_state.unit_free = fresh.Dyn_state.unit_free);
      check_int "time" fresh.Dyn_state.time reused.Dyn_state.time;
      check_int "last" fresh.Dyn_state.last reused.Dyn_state.last;
      check_int "n_scheduled" fresh.Dyn_state.n_scheduled reused.Dyn_state.n_scheduled)
    (List.tl blocks)

(* Engine allocation guard: [Engine.run] under the section-6 config over
   the Table-3 corpus, DAGs and annotations built beforehand, counted
   with [Gc.minor_words] on this domain.  Measured: 0.91 words/insn,
   most of it the order array the run returns (arrays past 256 words
   are allocated in the major heap and not counted); 5.0 when each
   block allocated its dynamic state's record, the push and successor
   closures and a boxed list length.  The budget is the measured value
   x 1.15, the benchmark's minor-words bound. *)
let engine_words_per_insn config =
  let blocks = List.concat_map snd (Profiles.corpus Profiles.benchmarks) in
  let runs = List.map (annotated config) blocks in
  let insns = List.fold_left (fun n b -> n + Block.length b) 0 blocks in
  (* warm up the per-domain scratch so growth costs are not charged *)
  List.iter (fun (dag, annot) -> ignore (Engine.run config ~annot dag)) runs;
  let m0 = Gc.minor_words () in
  List.iter
    (fun (dag, annot) -> ignore (Sys.opaque_identity (Engine.run config ~annot dag)))
    runs;
  (Gc.minor_words () -. m0) /. float_of_int insns

let check_engine_budget name config budget =
  let per_insn = engine_words_per_insn config in
  if per_insn > budget then
    Alcotest.failf "%s: Engine.run allocated %.2f words/insn (budget %.2f)" name
      per_insn budget

let test_engine_allocation_budget () =
  check_engine_budget "section 6" section6 1.05

(* The same guard under the two published strategies that key on
   dynamic arc heuristics: Tiemann's birthing instruction (a backward
   pass) and Gibbons–Muchnick's interlock with previous (forward).
   Measured: 2.04 and 0.91 words/insn once those heuristics read the
   one coalesced arc between the last issued node and the candidate;
   20.3 and 14.2 when each evaluation built a fold closure.  The
   budgets are the measured values x 1.15. *)
let test_dynamic_allocation_budget () =
  check_engine_budget "tiemann" (Published.engine_config Published.tiemann) 2.35;
  check_engine_budget "gibbons-muchnick"
    (Published.engine_config Published.gibbons_muchnick) 1.05

(* Two domains scheduling at once, each through its own scratch, give
   the orders one domain gives. *)
let test_two_domains () =
  let runs =
    List.concat_map
      (fun (_, config) ->
        List.map
          (fun seed ->
            let dag, annot = annotated config (random_block seed) in
            (config, annot, dag))
          (List.init 12 (fun s -> 31 + s)))
      scratch_configs
  in
  let all () = List.map (fun (config, annot, dag) -> Engine.run config ~annot dag) runs in
  let want = all () in
  let worker () = List.init 5 (fun _ -> all ()) in
  let a = Domain.spawn worker and b = Domain.spawn worker in
  List.iter
    (fun got -> check_bool "same orders on both domains" true (got = want))
    (Domain.join a @ Domain.join b)

let suite =
  [ qcheck ~count:150 "static priority = legacy pick, random blocks" arb_block
      prop_engine_matches_legacy;
    quick "static priority = legacy pick, 0/1-insn and wide blocks" test_edge_blocks;
    quick "static priority = legacy pick, seeded chain" test_seeded_chain;
    quick "priority overflow counts one overruled decision" test_overruled_pinned;
    quick "compute_for fills the walks its keys name" test_compute_for_columns;
    quick "an uncomputed column raises, naming the heuristic"
      test_uncomputed_column_raises;
    quick "scratch: nested runs equal un-nested ones" test_nested_runs;
    quick "scratch: a raising run releases it" test_raise_releases_scratch;
    quick "scratch: falling and rising block sizes" test_scratch_across_sizes;
    quick "scratch: two domains at once" test_two_domains;
    Alcotest.test_case "engine allocation budget" `Slow test_engine_allocation_budget;
    Alcotest.test_case "dynamic heuristics allocation budget" `Slow
      test_dynamic_allocation_budget ]
