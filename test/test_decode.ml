(** Construction and scoring from one per-domain block decode.

    The table builders read each block through
    {!Pipeline.decode}; these tests pin them to their pre-decode
    yardsticks ({!Table_legacy}) — fingerprints, adjacency walk
    sequences and the table-probe and alias-scan counts on the build's
    trace span — and pin
    scoring's reuse of the decode: a stale decode is never used, a DAG
    scored on another domain scores the same, and scoring a freshly
    built DAG allocates no scan.  The wide-uselist regression runs only
    under [dune build @slow] (DAGSCHED_DECODE_HEAVY=1). *)

open Dagsched
open Helpers

(* [build ()] inside a traced dag_build span: the DAG and the probe and
   alias-scan counts that span's args carry *)
let counted build =
  Trace.reset ();
  Trace.enable ();
  Fun.protect
    ~finally:(fun () ->
      Trace.disable ();
      Trace.reset ())
    (fun () ->
      let dag = Trace.with_span "dag_build" build in
      match Trace.snapshot () with
      | [ s ] ->
          let arg k =
            match List.assoc_opt k s.Trace.args with
            | Some (Json.Int n) -> n
            | _ -> 0
          in
          (dag, arg "table_probes", arg "alias_entries_scanned")
      | spans -> Alcotest.failf "expected one span, found %d" (List.length spans))

(* every node's succ and pred walks, in walk order *)
let walks dag =
  List.init (Dag.length dag) (fun i ->
      let s = ref [] and p = ref [] in
      Dag.iter_succ dag i (fun d l k -> s := (d, l, k) :: !s);
      Dag.iter_pred dag i (fun d l k -> p := (d, l, k) :: !p);
      (i, !s, !p))

(* Calls (which define and use all of memory), double-word and
   differently-based memory references, and a register read twice by
   one instruction: the paths random blocks reach rarely. *)
let edge_block =
  block_of_asm
    "ld [%fp - 8], %o1\n\
     add %o1, %o1, %o2\n\
     std %f0, [%o2 + 8]\n\
     ldd [%o2 + 8], %f2\n\
     st %o2, [x + 4]\n\
     call foo\n\
     ld [%sp + 64], %o3\n\
     st %o3, [%fp - 8]\n\
     faddd %f2, %f0, %f4\n\
     st %o1, [%o3]\n\
     ld [x + 4], %o1\n\
     add %o1, %o2, %o1\n\
     cmp %o1, %o3\n\
     bne L1\n"

(* large enough for DAGs of more than 64 arcs *)
let large_block =
  Gen.block (Prng.create 5) ~params:Gen.fp_straightline ~id:0 ~size:160 ()

let blocks =
  lazy
    ({ Block.id = 0; insns = [||] }
    :: block_of_asm "add %o1, 1, %o2"
    :: edge_block :: large_block
    :: List.init 40 (fun s -> random_block ((s * 13) + 3)))

let yardsticks =
  [ (Builder.Table_forward, Table_legacy.build_fwd);
    (Builder.Table_backward, Table_legacy.build_bwd) ]

let test_builders_match_yardsticks () =
  let most_arcs = ref 0 in
  List.iter
    (fun (b : Block.t) ->
      List.iter
        (fun model ->
          List.iter
            (fun strategy ->
              List.iter
                (fun anchor_branch ->
                  let opts = { Opts.model; strategy; anchor_branch } in
                  List.iter
                    (fun (alg, legacy) ->
                      let dag, p, a = counted (fun () -> Builder.build alg opts b) in
                      let dag', p', a' = counted (fun () -> legacy opts b) in
                      let name =
                        Printf.sprintf "block %d (%d insns) %s %s %s anchor=%b"
                          b.Block.id (Block.length b) (Builder.to_string alg)
                          model.Latency.name
                          (Disambiguate.to_string strategy)
                          anchor_branch
                      in
                      most_arcs := max !most_arcs (Dag.n_arcs dag);
                      if Dag.fingerprint dag <> Dag.fingerprint dag' then
                        Alcotest.failf "%s: fingerprints differ" name;
                      if walks dag <> walks dag' then
                        Alcotest.failf "%s: adjacency walks differ" name;
                      if p <> p' then
                        Alcotest.failf "%s: %d table probes, yardstick %d" name p p';
                      if a <> a' then
                        Alcotest.failf "%s: %d alias entries scanned, yardstick %d"
                          name a a')
                    yardsticks)
                [ false; true ])
            Disambiguate.all)
        Latency.all_models)
    (Lazy.force blocks);
  check_bool "some DAG has more than 64 arcs" true (!most_arcs > 64)

(* ------------------------------------------------------------------ *)
(* scoring over the decode *)

let engine_schedule dag =
  let config = Batch.section6.Batch.engine in
  let annot =
    Static_pass.compute_for (List.map (fun k -> k.Engine.heuristic) config.Engine.keys) dag
  in
  Schedule.make dag (Engine.run config ~annot dag)

(* the score of [sched] from a fresh decode of its block *)
let fresh_score (sched : Schedule.t) =
  let dag = sched.Schedule.dag in
  let sc = Pipeline.decode (Dag.model dag) (Dag.insns dag) in
  ( Pipeline.original_completion sc,
    Pipeline.simulate sc sched.Schedule.order )

let same_score name (s : Schedule.score) (original, (r : Pipeline.result)) =
  check_int (name ^ ": original cycles") original s.Schedule.original_cycles;
  check_int (name ^ ": completion") r.Pipeline.completion s.Schedule.cycles;
  check_int (name ^ ": stalls") r.Pipeline.stall_cycles s.Schedule.stalls

(* A long-latency chain, and a wider block of independent loads the
   chain's order would misread: scoring A over B's decode is wrong. *)
let chain_block =
  block_of_asm
    "ldd [%fp - 16], %f0\n\
     fmuld %f0, %f0, %f2\n\
     fdivd %f2, %f0, %f4\n\
     std %f4, [%fp - 24]\n"

let wide_block =
  block_of_asm
    "ld [%fp - 8], %o1\n\
     ld [%fp - 12], %o2\n\
     ld [%fp - 16], %o3\n\
     ld [%fp - 20], %o4\n\
     ld [%fp - 24], %o5\n\
     add %o1, %o2, %o0\n"

let test_stale_decode () =
  List.iter
    (fun alg ->
      let opts = { Opts.default with Opts.model = Latency.deep_fp } in
      let a = engine_schedule (Builder.build alg opts chain_block) in
      let expected = fresh_score a in
      same_score "current decode" (Schedule.score a) expected;
      (* B's build replaces this domain's decode *)
      ignore (Builder.build alg opts wide_block);
      same_score "after another build" (Schedule.score a) expected;
      check_int "cycles after another build" (snd expected).Pipeline.completion
        (Schedule.cycles a);
      check_int "original cycles after another build" (fst expected)
        (Schedule.original_cycles a))
    [ Builder.Table_forward; Builder.Table_backward; Builder.Reach_backward ]

let test_score_on_another_domain () =
  List.iter
    (fun (b : Block.t) ->
      let sched =
        engine_schedule (Builder.build Builder.Table_forward Batch.section6.Batch.opts b)
      in
      let there = Domain.join (Domain.spawn (fun () -> Schedule.score sched)) in
      same_score (Printf.sprintf "block %d" b.Block.id) there (fresh_score sched);
      (* and back here, where the decode is still current *)
      same_score "here" (Schedule.score sched) (fresh_score sched))
    [ chain_block; edge_block; large_block ]

(* Scoring a freshly built table-forward DAG reads the builder's decode
   and replays the schedule keeping no issue cycles: it allocates the
   score record only, not a scan (whose copy alone is about five words
   per instruction) nor an issue array (one word per instruction). *)
let test_score_allocates_no_scan () =
  let block = large_block in
  let n = Block.length block in
  let build () =
    engine_schedule (Builder.build Builder.Table_forward Batch.section6.Batch.opts block)
  in
  (* grow the domain's simulator scratch first *)
  ignore (Schedule.score (build ()));
  let sched = build () in
  let w0 = Gc.minor_words () in
  let s = Schedule.score sched in
  let words = Gc.minor_words () -. w0 in
  same_score "fresh DAG" s (fresh_score sched);
  if words > 8.0 then
    Alcotest.failf "Schedule.score allocated %.0f words for %d insns (bound 8)"
      words n

(* ------------------------------------------------------------------ *)
(* wide uselists *)

(* 100,000 reads of %o1, then its redefinition: the definition walks one
   uselist of 100,000 entries.  Walking it in ascending order must be
   linear — an insertion sort of the newest-first chain takes minutes. *)
let test_wide_uselist () =
  if Sys.getenv_opt "DAGSCHED_DECODE_HEAVY" <> None then begin
    let reads = 100_000 in
    let text =
      String.concat ""
        (List.init reads (fun _ -> "add %o1, 1, %g0\n") @ [ "add %g0, 1, %o1\n" ])
    in
    let insns = Array.of_list (Parser.parse_program text) in
    let block = { Block.id = 0; insns } in
    let opts = { Opts.default with Opts.strategy = Disambiguate.Symbolic } in
    let t0 = Unix.gettimeofday () in
    let dag = Builder.build Builder.Table_forward opts block in
    let s = Unix.gettimeofday () -. t0 in
    check_int "one WAR arc per read" reads (Dag.n_arcs dag);
    if s >= 1.0 then
      Alcotest.failf "table-forward took %.2f s over %d reads (bound 1 s)" s reads
  end

(* ------------------------------------------------------------------ *)
(* a long-lived domain's intern table *)

(* 50,000 stores, each to a memory expression of its own, in blocks of
   500: [base] picks which 50,000 *)
let stores_request base =
  let buf = Buffer.create (1 lsl 20) in
  for k = 0 to 49_999 do
    if k mod 500 = 0 then Buffer.add_string buf (Printf.sprintf "B%d:\n" (k / 500));
    let e = base + k in
    Buffer.add_string buf
      (Printf.sprintf "st %%g1, [%%o%d + %d]\n" (e mod 8) (8 * (e / 8)))
  done;
  Json.to_string
    (Serve.request_to_json
       (Serve.Schedule
          { text = Buffer.contents buf; builder = Builder.Table_forward;
            strategy = Disambiguate.Base_offset; model = Latency.simple_risc }))

(* A daemon serving ever new memory expressions keeps a bounded number
   of them: once the first requests have grown the domain's scratch, a
   request of 50,000 new expressions leaves less than 1 MB more live
   behind.  Each request is evicted by the next ([~max_entries:1] and a
   [nop] request), so the cache holds nothing of it. *)
let test_interned_expressions_bounded () =
  if Sys.getenv_opt "DAGSCHED_DECODE_HEAVY" <> None then begin
    let serve = Serve.create ~max_entries:1 () in
    Fun.protect ~finally:(fun () -> Serve.destroy serve) @@ fun () ->
    let nop =
      Json.to_string
        (Serve.request_to_json
           (Serve.Schedule
              { text = "nop\n"; builder = Builder.Table_forward;
                strategy = Disambiguate.Base_offset;
                model = Latency.simple_risc }))
    in
    let live_after base =
      ignore (Serve.handle_text serve (stores_request base));
      ignore (Serve.handle_text serve nop);
      Gc.compact ();
      (Gc.stat ()).Gc.live_words
    in
    let first = live_after 0 in
    let again = live_after 0 in
    let third = live_after 1_000_000 in
    let fourth = live_after 2_000_000 in
    let mb w = float_of_int (w * (Sys.word_size / 8)) /. 1048576.0 in
    if fourth - third >= 131_072 then
      Alcotest.failf
        "live MB after requests: %.2f, %.2f (same), %.2f, %.2f (new \
         expressions): the fourth kept %.2f MB"
        (mb first) (mb again) (mb third) (mb fourth)
        (mb (fourth - third))
  end

let suite =
  [ quick "table builders match their yardsticks" test_builders_match_yardsticks;
    quick "stale decode is not reused" test_stale_decode;
    quick "scoring on another domain" test_score_on_another_domain;
    quick "score allocates no scan" test_score_allocates_no_scan;
    Alcotest.test_case "wide uselist builds in linear time" `Slow test_wide_uselist;
    Alcotest.test_case "interned memory expressions stay bounded" `Slow
      test_interned_expressions_bounded ]
