(** Differential tests for the parallel batch-scheduling driver:
    parallelism must not change results.  [Batch.run ~domains:1] and
    [Batch.run ~domains:N] must produce identical schedules, heuristic
    annotations and statistics for every block, across all construction
    algorithms, disambiguation strategies and chunk sizes (per-block,
    odd, the 64-block default, and bigger than the corpus).

    CI can pin the parallel domain count with DAGSCHED_TEST_DOMAINS
    (default 4; values < 2 are clamped to 2 so the test always crosses a
    domain boundary). *)

open Dagsched
open Helpers

let test_domains =
  match Sys.getenv_opt "DAGSCHED_TEST_DOMAINS" with
  | Some s -> (try max 2 (int_of_string s) with _ -> 4)
  | None -> 4

(* The deterministic part of a result; time_s legitimately differs. *)
let key r = Batch.strip_timing r

let config_with alg strategy =
  { Batch.section6 with
    Batch.algorithm = alg;
    opts = { Batch.section6.Batch.opts with Opts.strategy } }

(* chunk sizes crossing every interesting boundary: per-block
   submission, an odd mid-size that splits the corpus unevenly, the
   driver default, and a chunk bigger than the whole corpus *)
let chunks_for blocks = [ 1; 7; 64; List.length blocks + 1 ]

let check_differential config blocks =
  let seq = Batch.run ~domains:1 ~chunk:1 config blocks in
  (* aggregate stats agree once wall-clock fields are normalized *)
  let strip (r : Batch.report) =
    { r with Batch.domains = 0; wall_s = 0.0; block_s_mean = 0.0;
      block_s_max = 0.0 }
  in
  let rep d results = strip (Batch.report ~domains:d ~wall_s:0.0 results) in
  let check_against label par =
    check_int (label ^ ": same result count") (List.length seq)
      (List.length par);
    List.iter2
      (fun a b ->
        if key a <> key b then
          Alcotest.failf "%s: result differs for block %d" label
            a.Batch.block_id)
      seq par;
    check_bool (label ^ ": same report") true
      (rep 1 seq = rep test_domains par)
  in
  (* default chunking across a domain boundary, then the explicit chunk
     sweep: sequential per-block == parallel chunked for every size *)
  check_against "parallel" (Batch.run ~domains:test_domains config blocks);
  List.iter
    (fun chunk ->
      check_against
        (Printf.sprintf "chunk %d" chunk)
        (Batch.run ~domains:test_domains ~chunk config blocks))
    (chunks_for blocks)

(* ------------------------------------------------------------------ *)
(* the full algorithm x strategy cross product on a fixed seed set *)

let test_differential_cross_product () =
  let blocks = List.mapi (fun i seed -> { (random_block seed) with Block.id = i })
      [ 11; 23; 37; 41; 59; 67 ] in
  List.iter
    (fun alg ->
      List.iter
        (fun strategy -> check_differential (config_with alg strategy) blocks)
        Disambiguate.all)
    Builder.all

(* ------------------------------------------------------------------ *)
(* qcheck property: >= 100 random seeds through the default pipeline *)

let prop_differential_batch seed =
  (* four blocks per batch so work actually interleaves across workers;
     the chunk size also rotates with the seed so the 120-seed sweep
     crosses per-block, odd, default and bigger-than-corpus chunking *)
  let blocks =
    List.init 4 (fun i -> { (random_block (seed + (7919 * i))) with Block.id = i })
  in
  let chunk = List.nth (chunks_for blocks) (seed mod 4) in
  let seq = Batch.run ~domains:1 ~chunk:1 Batch.section6 blocks in
  let par = Batch.run ~domains:test_domains Batch.section6 blocks in
  let chunked = Batch.run ~domains:test_domains ~chunk Batch.section6 blocks in
  List.for_all2 (fun a b -> key a = key b) seq par
  && List.for_all2 (fun a b -> key a = key b) seq chunked

(* ------------------------------------------------------------------ *)
(* ordering and shape *)

let test_results_in_input_order () =
  let blocks = List.init 37 (fun i -> { (random_block (500 + i)) with Block.id = i }) in
  let results = Batch.run ~domains:test_domains Batch.section6 blocks in
  List.iteri
    (fun i (r : Batch.result) -> check_int "input order" i r.Batch.block_id)
    results;
  List.iter2
    (fun (b : Block.t) (r : Batch.result) ->
      check_int "block length" (Block.length b) r.Batch.insns;
      check_int "order is a permutation" (Block.length b)
        (List.length
           (List.sort_uniq compare (Array.to_list r.Batch.order))))
    blocks results

let test_empty_batch () =
  List.iter
    (fun chunk ->
      check_int "no blocks, no results" 0
        (List.length (Batch.run ~domains:test_domains ?chunk Batch.section6 [])))
    [ None; Some 1; Some 7; Some 64 ]

(* single-block corpus: every chunk size degenerates to one task *)
let test_single_block_chunks () =
  let blocks = [ { (random_block 123) with Block.id = 0 } ] in
  let seq = Batch.run ~domains:1 ~chunk:1 Batch.section6 blocks in
  List.iter
    (fun chunk ->
      let par = Batch.run ~domains:test_domains ~chunk Batch.section6 blocks in
      check_bool
        (Printf.sprintf "single block, chunk %d" chunk)
        true
        (List.map key seq = List.map key par))
    [ 1; 2; 64 ]

(* an invalid-schedule exception from a worker surfaces on the caller *)
let test_verify_runs () =
  let blocks = [ random_block 77 ] in
  let results = Batch.run ~domains:2 { Batch.section6 with Batch.verify = true } blocks in
  check_int "one result" 1 (List.length results)

(* ------------------------------------------------------------------ *)
(* report JSON round trip *)

let test_report_round_trip () =
  let blocks = List.init 12 (fun i -> { (random_block (900 + i)) with Block.id = i }) in
  let _, report = Batch.run_with_report ~domains:test_domains Batch.section6 blocks in
  let text = Stats.Json.to_string (Batch.report_to_json report) in
  match Stats.Json.of_string text with
  | Error msg -> Alcotest.failf "report does not parse back: %s" msg
  | Ok json -> (
      match Batch.report_of_json json with
      | Error e ->
          Alcotest.failf "report does not rebuild: %s"
            (Stats.Json.error_to_string e)
      | Ok report' ->
          check_bool "round trip preserves the report" true (report = report'))

(* a NaN wall-clock field must survive the round trip (writer: null;
   reader: nan) and compare equal under report_equal — structural [=]
   would reject the report against itself *)
let test_report_round_trip_nan () =
  let report =
    { (Batch.report ~domains:2 ~wall_s:Float.nan []) with
      Batch.block_s_max = Float.infinity }
  in
  check_bool "structural = is NaN-blind" false (report = report);
  let text = Stats.Json.to_string (Batch.report_to_json report) in
  match Stats.Json.of_string text with
  | Error msg -> Alcotest.failf "NaN report does not parse back: %s" msg
  | Ok json -> (
      match Batch.report_of_json json with
      | Error e ->
          Alcotest.failf "NaN report does not rebuild: %s"
            (Stats.Json.error_to_string e)
      | Ok report' ->
          check_bool "wall_s reads back as nan" true
            (Float.is_nan report'.Batch.wall_s);
          (* infinity also went through null, so it reads back as nan *)
          check_bool "block_s_max reads back as nan" true
            (Float.is_nan report'.Batch.block_s_max);
          check_bool "report_equal tolerates NaN fields" true
            (Batch.report_equal
               { report with Batch.block_s_max = Float.nan }
               report'))

let test_batch_report_empty () =
  let r = Batch.report ~domains:3 ~wall_s:0.0 [] in
  check_int "blocks" 0 r.Batch.blocks;
  check_int "insns" 0 r.Batch.insns;
  check_int "cycles" 0 r.Batch.scheduled_cycles;
  Alcotest.(check (float 1e-9)) "mean" 0.0 r.Batch.block_s_mean;
  Alcotest.(check (float 1e-9)) "max" 0.0 r.Batch.block_s_max

(* ------------------------------------------------------------------ *)
(* adversarial inputs: the JSON readers accept externally produced
   reports, so malformed, truncated or wrong-schema input must yield a
   typed error naming the offending field — never an exception *)

let set_field k v = function
  | Stats.Json.Obj fs ->
      Stats.Json.Obj (List.map (fun (k', v') -> if k' = k then (k, v) else (k', v')) fs)
  | j -> j

let remove_field k = function
  | Stats.Json.Obj fs -> Stats.Json.Obj (List.filter (fun (k', _) -> k' <> k) fs)
  | j -> j

let sample_report =
  { (Batch.report ~domains:2 ~wall_s:0.125 []) with
    Batch.blocks = 3; insns = 17; arcs = 21; original_cycles = 40;
    scheduled_cycles = 31; stalls = 2 }

let expect_report_error name mutated expected_path =
  match Batch.report_of_json mutated with
  | Ok _ -> Alcotest.failf "%s: mutation not detected" name
  | Error e ->
      let msg = Stats.Json.error_to_string e in
      if not (Helpers.contains msg expected_path) then
        Alcotest.failf "%s: error %S does not name %S" name msg expected_path

let test_report_of_json_adversarial () =
  let json = Batch.report_to_json sample_report in
  (* sanity: unmutated parses *)
  (match Batch.report_of_json json with
  | Ok r -> check_bool "unmutated report parses" true (Batch.report_equal r sample_report)
  | Error e -> Alcotest.failf "unmutated: %s" (Stats.Json.error_to_string e));
  expect_report_error "missing field" (remove_field "blocks" json) "blocks";
  expect_report_error "int field holds a string"
    (set_field "insns" (Stats.Json.String "many") json) "insns";
  expect_report_error "int field holds a float"
    (set_field "stalls" (Stats.Json.Float 1.5) json) "stalls";
  expect_report_error "float field holds a string"
    (set_field "wall_s" (Stats.Json.String "fast") json) "wall_s";
  expect_report_error "not an object" (Stats.Json.List [ json ]) "object";
  expect_report_error "null document" Stats.Json.Null "object"

(* \u escape hardening: a surrogate half used to blow up Uchar.of_int
   with an Invalid_argument that escaped of_string's Error channel *)
let test_json_unicode_escape_total () =
  (match Stats.Json.of_string "\"\\u0041\"" with
  | Ok (Stats.Json.String "A") -> ()
  | Ok j -> Alcotest.failf "\\u0041 parsed to %s" (Stats.Json.to_string j)
  | Error msg -> Alcotest.failf "\\u0041 rejected: %s" msg);
  List.iter
    (fun text ->
      match Stats.Json.of_string text with
      | Ok j ->
          Alcotest.failf "%S accepted as %s" text (Stats.Json.to_string j)
      | Error _ -> ())
    [ "\"\\ud800\"";       (* high surrogate: not a scalar value *)
      "\"\\udfff\"";       (* low surrogate *)
      "\"\\uzzzz\"";       (* non-hex digits *)
      "\"\\u00" ]          (* truncated escape *)

(* The document [schedtool batch --json --resource --explain] writes:
   the report with its "resource" and "explain" sections, recorded over
   a few blocks with both registries on. *)
let sample_document () =
  let blocks =
    List.init 3 (fun i -> { (random_block (700 + i)) with Block.id = i })
  in
  let off () =
    Obs_resource.disable ();
    Obs_resource.reset ();
    Explain.disable ();
    Explain.reset ()
  in
  off ();
  Fun.protect ~finally:off @@ fun () ->
  Obs_resource.enable ();
  Explain.enable ();
  let _, report = Batch.run_with_report ~domains:1 Batch.section6 blocks in
  let rows = Obs_resource.snapshot () and stats = Explain.snapshot () in
  check_bool "resource rows recorded" true (rows <> []);
  check_bool "decisiveness recorded" true (stats <> []);
  match Batch.report_to_json report with
  | Stats.Json.Obj fields ->
      Stats.Json.Obj
        (fields
        @ [ ("resource", Obs_resource.to_json rows);
            ("explain", Explain.to_json stats) ])
  | _ -> Alcotest.fail "report is not a JSON object"

(* every prefix and every single-byte corruption of a valid report
   document must flow out as Ok or Error — no exception may escape the
   of_string + of_json pipeline, for the report or either section *)
let test_json_no_exception_escapes () =
  let text = Stats.Json.to_string (sample_document ()) in
  let feed s =
    match Stats.Json.of_string s with
    | Error _ -> ()
    | Ok json -> (
        (match Batch.report_of_json json with Ok _ | Error _ -> ());
        (match Stats.Json.member "resource" json with
        | Some r -> (
            match Obs_resource.of_json ~path:[ "resource" ] r with
            | Ok _ | Error _ -> ())
        | None -> ());
        match Stats.Json.member "explain" json with
        | Some e -> (
            match Explain.of_json ~path:[ "explain" ] e with
            | Ok _ | Error _ -> ())
        | None -> ())
  in
  for len = 0 to String.length text - 1 do
    feed (String.sub text 0 len)
  done;
  let corruptions = [ '\000'; '\255'; '{'; '}'; '"'; '\\'; '['; '9'; ' ' ] in
  String.iteri
    (fun i _ ->
      List.iter
        (fun c ->
          let b = Bytes.of_string text in
          Bytes.set b i c;
          feed (Bytes.to_string b))
        corruptions)
    text

(* ------------------------------------------------------------------ *)
(* generation determinism across domains: two [random_block seed] calls
   from different domains yield equal blocks (the generator threads its
   Prng.t explicitly; this is the regression test that keeps it so) *)

let print_block b = Parser.print_program (Array.to_list b.Block.insns)

let test_generation_cross_domain () =
  List.iter
    (fun seed ->
      let d1 = Domain.spawn (fun () -> print_block (random_block seed)) in
      let d2 = Domain.spawn (fun () -> print_block (random_block seed)) in
      let a = Domain.join d1 and b = Domain.join d2 in
      let here = print_block (random_block seed) in
      check_string "domains agree" a b;
      check_string "domain agrees with caller" a here)
    [ 1; 42; 1234; 99991 ]

let test_profile_generation_cross_domain () =
  let summarize () =
    Format.asprintf "%a" Summary.pp (Profiles.summarize Profiles.grep)
  in
  let d = Domain.spawn summarize in
  check_string "profile generation domain-independent" (summarize ())
    (Domain.join d)

(* ------------------------------------------------------------------ *)
(* explain differential: the decision recorder must never change a
   schedule, a statistic or a report — only add its own registry *)

let test_explain_differential () =
  let blocks =
    List.mapi
      (fun i seed -> { (random_block seed) with Block.id = i })
      [ 101; 211; 307; 401 ]
  in
  let strip (r : Batch.report) =
    { r with Batch.domains = 0; wall_s = 0.0; block_s_mean = 0.0;
      block_s_max = 0.0 }
  in
  Explain.disable ();
  Explain.reset ();
  let off, off_rep =
    Batch.run_with_report ~domains:test_domains Batch.section6 blocks
  in
  check_int "recorder stayed empty" 0 (List.length (Explain.snapshot ()));
  let on, on_rep, stats =
    Explain.enable ();
    Fun.protect
      ~finally:(fun () ->
        Explain.disable ();
        Explain.reset ())
      (fun () ->
        let on, rep =
          Batch.run_with_report ~domains:test_domains Batch.section6 blocks
        in
        (on, rep, Explain.snapshot ()))
  in
  List.iter2
    (fun a b ->
      if Batch.strip_timing a <> Batch.strip_timing b then
        Alcotest.failf "explain changed the result of block %d" a.Batch.block_id)
    off on;
  check_bool "identical report" true (strip off_rep = strip on_rep);
  (* and the registry actually saw the corpus: every strategy consulted,
     counts internally consistent *)
  check_bool "stats recorded" true (stats <> []);
  let insns =
    List.fold_left (fun a (b : Block.t) -> a + Block.length b) 0 blocks
  in
  List.iter
    (fun (s : Explain.strategy_stat) ->
      check_bool "one decision per issued node" true
        (s.Explain.decisions mod insns = 0);
      check_bool "forced within decisions" true
        (s.Explain.forced <= s.Explain.decisions);
      List.iter
        (fun (r : Explain.rank_stat) ->
          check_bool "consulted within non-forced decisions" true
            (r.Explain.consulted <= s.Explain.decisions - s.Explain.forced))
        s.Explain.ranks)
    stats

(* Whole-pipeline allocation guard: the section-6 stages of a batch
   block (table-forward build, static pass, engine, verify, and the
   one-scan score of the original and the scheduled order) over the
   Table-3 corpus, counted with [Gc.minor_words] on the calling domain —
   a pool would charge its worker domains instead.  Measured: 6.60M
   minor words with the flat scan/simulate scorer and the engine's array
   ready list, against 36.63M when the simulator kept a [Resource.Tbl]
   with reader lists and the ready list was filtered as an [int list].
   The budget is the measured value x 1.15, the benchmark's minor-words
   bound.  The count is deterministic: fixed corpus, fixed pipeline, one
   domain. *)
let test_pipeline_allocation_budget () =
  let budget_words = 7_590_000.0 in
  let config = Batch.section6 in
  let heuristics =
    List.map (fun k -> k.Engine.heuristic) config.Batch.engine.Engine.keys
  in
  let blocks = List.concat_map snd (Profiles.corpus Profiles.benchmarks) in
  let run b =
    let dag = Builder.build config.Batch.algorithm config.Batch.opts b in
    let annot = Static_pass.compute_for heuristics dag in
    let sched = Schedule.make dag (Engine.run config.Batch.engine ~annot dag) in
    (match Verify.check sched with
    | Ok () -> ()
    | Error v -> Alcotest.fail (Verify.violation_to_string v));
    ignore (Schedule.score sched)
  in
  (* warm up the per-domain scratch so growth costs are not charged *)
  run (List.hd blocks);
  let m0 = Gc.minor_words () in
  List.iter run blocks;
  let words = Gc.minor_words () -. m0 in
  if words > budget_words then
    Alcotest.failf "section-6 pipeline allocated %.0f minor words (budget %.0f)"
      words budget_words

let suite =
  [ quick "differential: builders x strategies" test_differential_cross_product;
    qcheck ~count:120 "differential: random batches (>= 100 seeds)"
      arb_block prop_differential_batch;
    quick "results in input order" test_results_in_input_order;
    quick "empty batch" test_empty_batch;
    quick "single-block chunk edge cases" test_single_block_chunks;
    quick "verification runs in workers" test_verify_runs;
    quick "report JSON round trip" test_report_round_trip;
    quick "report JSON round trip with NaN" test_report_round_trip_nan;
    quick "report on empty batch" test_batch_report_empty;
    quick "adversarial report JSON" test_report_of_json_adversarial;
    quick "unicode escapes are total" test_json_unicode_escape_total;
    quick "no exception escapes the readers" test_json_no_exception_escapes;
    quick "random_block equal across domains" test_generation_cross_domain;
    quick "profile generation equal across domains"
      test_profile_generation_cross_domain;
    quick "differential: explain off vs on" test_explain_differential;
    Alcotest.test_case "pipeline allocation budget" `Slow
      test_pipeline_allocation_budget ]
