(** One machine state times every order: its mark/undo trail against
    full replays, the fixup against the {!Fixup_legacy} yardstick that
    replays the whole block per trial, the optimal search against brute
    force over every legal order, and arc timing ({!Arc_timing}) against
    the pipeline on symbolic DAGs. *)

open Dagsched
open Helpers

(* Fisher-Yates over [a] in place *)
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let opts ~model ~strategy ~anchor_branch = { Opts.model; strategy; anchor_branch }

(* ------------------------------------------------------------------ *)
(* the trail *)

(* Issue a random order, mark at a random point, issue the rest, undo
   to the mark and issue the rest in another order: every cycle, the
   completion and the next cycle match full replays of both orders. *)
let prop_undo seed =
  let insns = (random_block seed).Block.insns in
  let n = Array.length insns in
  let rng = Prng.create (seed + 7) in
  List.for_all
    (fun model ->
      let order = Array.init n Fun.id in
      shuffle rng order;
      let cut = Prng.int rng (n + 1) in
      let rest = Array.sub order cut (n - cut) in
      shuffle rng rest;
      let other = Array.append (Array.sub order 0 cut) rest in
      let sc = Pipeline.decode model insns in
      let a = Pipeline.simulate sc order and b = Pipeline.simulate sc other in
      let st = Pipeline.start sc in
      (* issue [o.(p0 .. p1-1)], each at the cycle [r] gives it *)
      let issues o (r : Pipeline.result) p0 p1 =
        List.for_all
          (fun p -> Pipeline.issue st o.(p) = r.Pipeline.issue_cycle.(p))
          (List.init (p1 - p0) (fun k -> p0 + k))
      in
      let prefix = issues order a 0 cut in
      let m = Pipeline.mark st in
      let next = Pipeline.next_issue st and completed = Pipeline.completed st in
      let first =
        issues order a cut n && Pipeline.completed st = a.Pipeline.completion
      in
      Pipeline.undo st m;
      let back =
        Pipeline.mark st = m && Pipeline.next_issue st = next
        && Pipeline.completed st = completed
      in
      let second =
        issues other b cut n && Pipeline.completed st = b.Pipeline.completion
      in
      (prefix && first && back && second)
      || QCheck.Test.fail_reportf "%s: cut %d" model.Latency.name cut)
    Latency.all_models

(* ------------------------------------------------------------------ *)
(* arc timing = pipeline timing on symbolic DAGs *)

(* Under symbolic disambiguation every arc of the table and n² DAGs is
   a same-resource dependence the pipeline waits on, and the pipeline
   waits on nothing those arcs do not imply: for every published order
   the arc timing is the pipeline's. *)
let prop_arc_timing seed =
  let block = random_block seed in
  List.for_all
    (fun model ->
      List.for_all
        (fun alg ->
          let dag =
            Builder.build alg
              (opts ~model ~strategy:Disambiguate.Symbolic
                 ~anchor_branch:(seed land 1 = 0))
              block
          in
          List.for_all
            (fun spec ->
              let s = Published.run_on_dag spec dag in
              let arc = Arc_timing.evaluate dag s.Schedule.order in
              arc = Schedule.cycles s
              || QCheck.Test.fail_reportf "%s %s %s: arc %d, pipeline %d"
                   model.Latency.name (Builder.to_string alg)
                   spec.Published.short arc (Schedule.cycles s))
            Published.all)
        [ Builder.Table_forward; Builder.Table_backward; Builder.N2_forward ])
    Latency.all_models

(* ------------------------------------------------------------------ *)
(* the fixup against its yardstick *)

(* Sweeps to a fixed point, bounded by the block length as [Fixup.run]
   is: the final order and the number of improving sweeps. *)
let sweeps sweep (s : Schedule.t) =
  let n = Array.length s.Schedule.order in
  let rec go k count = if k > 0 && sweep s then go (k - 1) (count + 1) else count in
  let count = go n 0 in
  (s.Schedule.order, count)

let same_fixup dag order =
  let resumed = sweeps Fixup.sweep (Schedule.make dag (Array.copy order)) in
  let legacy = sweeps Fixup_legacy.sweep (Schedule.make dag (Array.copy order)) in
  resumed = legacy

let prop_fixup seed =
  let block = random_block seed in
  List.for_all
    (fun model ->
      List.for_all
        (fun strategy ->
          let dag =
            Builder.build Builder.Table_forward
              (opts ~model ~strategy ~anchor_branch:(seed land 1 = 0))
              block
          in
          let engine =
            Engine.schedule (Published.engine_config Published.krishnamurthy) dag
          in
          (same_fixup dag (Array.init (Dag.length dag) Fun.id)
           && same_fixup dag engine)
          || QCheck.Test.fail_reportf "%s %s" model.Latency.name
               (Disambiguate.to_string strategy))
        Disambiguate.all)
    Latency.all_models

(* Krishnamurthy's schedules over two corpora, fixup included, against
   its engine order fixed up by the yardstick. *)
let test_fixup_corpora () =
  let spec = Published.krishnamurthy in
  List.iter
    (fun profile ->
      List.iter
        (fun (b : Block.t) ->
          let dag = Builder.build (Published.builder spec) Opts.default b in
          let s = Published.run_on_dag spec dag in
          let legacy =
            Fixup_legacy.run (Schedule.make dag (Engine.schedule (Published.engine_config spec) dag))
          in
          if s.Schedule.order <> legacy.Schedule.order then
            Alcotest.failf "%s block %d: fixup orders differ"
              profile.Profiles.name b.Block.id)
        (Profiles.generate profile))
    [ Profiles.grep; Profiles.linpack ]

(* ------------------------------------------------------------------ *)
(* the oracle is exact in pipeline cycles *)

(* The least [Schedule.cycles] over every order [dag] allows. *)
let brute_force dag =
  let n = Dag.length dag in
  let parents = Array.init n (Dag.n_parents dag) in
  let used = Array.make n false in
  let order = Array.make n 0 in
  let best = ref max_int in
  let rec go depth =
    if depth = n then best := min !best (Schedule.cycles (Schedule.make dag order))
    else
      for i = 0 to n - 1 do
        if (not used.(i)) && parents.(i) = 0 then begin
          used.(i) <- true;
          order.(depth) <- i;
          Dag.iter_succ dag i (fun d _ _ -> parents.(d) <- parents.(d) - 1);
          go (depth + 1);
          Dag.iter_succ dag i (fun d _ _ -> parents.(d) <- parents.(d) + 1);
          used.(i) <- false
        end
      done
  in
  go 0;
  if n = 0 then 0 else !best

(* Every builder, model and strategy: an exhaustive search finds the
   brute-force minimum, and its schedule is valid and scores what it
   reports. *)
let oracle_exact ~anchor_branch block =
  List.for_all
    (fun model ->
      List.for_all
        (fun strategy ->
          List.for_all
            (fun alg ->
              let dag =
                Builder.build alg
                  (opts ~model ~strategy ~anchor_branch)
                  block
              in
              let r = Optimal.run dag in
              let best = brute_force dag in
              (r.Optimal.optimal && r.Optimal.cycles = best
               && Verify.is_valid r.Optimal.schedule
               && Schedule.cycles r.Optimal.schedule = r.Optimal.cycles)
              || QCheck.Test.fail_reportf "%s %s %s: oracle %d (exhaustive %b), brute force %d"
                   model.Latency.name (Disambiguate.to_string strategy)
                   (Builder.to_string alg) r.Optimal.cycles r.Optimal.optimal best)
            Builder.all)
        Disambiguate.all)
    Latency.all_models

(* blocks of at most 7 insns *)
let prop_oracle_exact seed =
  let insns = (random_block seed).Block.insns in
  oracle_exact ~anchor_branch:(seed land 1 = 0)
    { Block.id = 0; insns = Array.sub insns 0 (min 7 (Array.length insns)) }

(* Memory references with different bases: the base-offset and
   serialize-all DAGs order them, the pipeline does not wait on them.
   A critical path read off those DAGs overstates the asymmetric-bypass
   machine's time (8 against 7 from n2-forward under serialize-all), so
   a search bounded by it misses the optimum. *)
let test_oracle_may_alias () =
  check_bool "oracle = brute force" true
    (oracle_exact ~anchor_branch:true
       (block_of_asm
          "ldf [%o5 + 252], %f12\n\
           and %l5, %l6, %o4\n\
           add %o0, %o4, %o4\n\
           st %o4, [%o5 + 252]\n\
           st %o4, [g14_1 + 8]\n\
           add %o4, 18, %i2\n\
           ld [%i0 + 64], %l3"))

let suite =
  [ qcheck ~count:100 "undo to a mark = replay" arb_block prop_undo;
    qcheck ~count:60 "arc timing = pipeline under symbolic" arb_block prop_arc_timing;
    qcheck ~count:60 "fixup = replaying yardstick" arb_block prop_fixup;
    quick "krishnamurthy orders on grep and linpack = yardstick" test_fixup_corpora;
    qcheck ~count:40 "oracle = brute force, blocks <= 7 insns" arb_block
      prop_oracle_exact;
    quick "oracle = brute force on may-alias memory" test_oracle_may_alias ]
