(** Observability tests: the monotonic-leaning clock, the span recorder
    and its Chrome trace-event round trip, the counts that ride on spans
    as args, the spans' minor-words charge, adversarial decoding of
    malformed trace JSON, pool instrumentation, and the differential
    guarantee that enabling observability changes no scheduling result.

    Every test leaves the recorders disabled and empty: the rest of the
    suite (golden output tests in particular) relies on observability
    being invisible by default. *)

open Dagsched
open Helpers

let obs_off () =
  Trace.disable ();
  Trace.reset ()

(* Run [f] with the span recorder enabled and empty, restoring the
   default disabled-and-empty state afterwards even on failure. *)
let with_obs f =
  obs_off ();
  Trace.enable ();
  Fun.protect ~finally:obs_off f

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* clock *)

let test_clock_monotonic () =
  let prev = ref (Clock.now ()) in
  for _ = 1 to 1000 do
    let t = Clock.now () in
    check_bool "non-decreasing" true (t >= !prev);
    prev := t
  done

let test_clock_clamp () =
  check_float "negative clamps" 0.0 (Clock.clamp (-3.0));
  check_float "zero stays" 0.0 (Clock.clamp 0.0);
  check_float "positive stays" 1.5 (Clock.clamp 1.5);
  check_float "backwards duration clamps" 0.0
    (Clock.duration ~start:10.0 ~stop:4.0);
  check_float "forward duration" 2.5 (Clock.duration ~start:1.5 ~stop:4.0);
  check_bool "since is non-negative" true (Clock.since (Clock.now ()) >= 0.0)

(* A stopped clock passes the two tests above; these it cannot. *)
let test_clock_moves () =
  let t0 = Clock.now () in
  Unix.sleepf 0.02;
  check_bool "since after a 20 ms sleep is >= 15 ms" true (Clock.since t0 >= 0.015);
  check_bool "now is within 1 s of gettimeofday" true
    (Float.abs (Clock.now () -. Unix.gettimeofday ()) < 1.0);
  let mean, () = Stats.time_runs ~runs:2 (fun () -> Unix.sleepf 0.005) in
  check_bool "time_runs over a sleep is positive" true (mean > 0.0)

let test_span_duration_positive () =
  with_obs @@ fun () ->
  Trace.with_span ~cat:"test" "nap" (fun () -> Unix.sleepf 0.005);
  match Trace.snapshot () with
  | [ s ] -> check_bool "dur_us > 0" true (s.Trace.dur_us > 0.0)
  | spans -> Alcotest.failf "expected 1 span, got %d" (List.length spans)

(* ------------------------------------------------------------------ *)
(* trace: recording semantics *)

let test_trace_disabled_is_invisible () =
  obs_off ();
  let r = Trace.with_span ~cat:"test" "phase" (fun () -> 41 + 1) in
  check_int "with_span returns f ()" 42 r;
  check_int "nothing recorded" 0 (List.length (Trace.snapshot ()))

let test_trace_with_span_records () =
  with_obs @@ fun () ->
  let r = Trace.with_span ~cat:"test" "phase_a" (fun () -> "ok") in
  check_string "result through" "ok" r;
  match Trace.snapshot () with
  | [ s ] ->
      check_string "name" "phase_a" s.Trace.name;
      check_string "cat" "test" s.Trace.cat;
      check_int "pid 0 in-process" 0 s.Trace.pid;
      check_bool "duration non-negative" true (s.Trace.dur_us >= 0.0)
  | spans -> Alcotest.failf "expected 1 span, got %d" (List.length spans)

let test_trace_with_span_on_exception () =
  with_obs @@ fun () ->
  (try
     Trace.with_span ~cat:"test" "doomed" (fun () -> failwith "boom")
   with Failure _ -> ());
  match Trace.snapshot () with
  | [ s ] -> check_string "aborted phase still recorded" "doomed" s.Trace.name
  | spans -> Alcotest.failf "expected 1 span, got %d" (List.length spans)

let test_trace_snapshot_sorted () =
  with_obs @@ fun () ->
  Trace.record ~cat:"t" ~name:"late" ~start_s:3.0 ~stop_s:4.0 ();
  Trace.record ~cat:"t" ~name:"early" ~start_s:1.0 ~stop_s:2.0 ();
  Trace.record ~cat:"t" ~name:"middle" ~start_s:2.0 ~stop_s:2.5 ();
  let names = List.map (fun s -> s.Trace.name) (Trace.snapshot ()) in
  Alcotest.(check (list string))
    "chronological" [ "early"; "middle"; "late" ] names

(* ------------------------------------------------------------------ *)
(* trace: Chrome trace-event JSON round trip *)

let roundtrip spans =
  let text = Stats.Json.to_string (Trace.to_json spans) in
  match Stats.Json.of_string text with
  | Error msg -> Alcotest.failf "trace does not parse back: %s" msg
  | Ok json -> (
      match Trace.events_of_json json with
      | Error e -> Alcotest.failf "decode: %s" (Stats.Json.error_to_string e)
      | Ok spans' -> spans')

let test_trace_json_roundtrip () =
  with_obs @@ fun () ->
  Trace.record ~cat:"pipeline"
    ~args:[ ("block", Json.Int 3); ("builder", Json.String "table-forward") ]
    ~name:"dag_build" ~start_s:1.25 ~stop_s:1.5 ();
  Trace.record ~cat:"pool" ~name:"queue_wait" ~start_s:2.0 ~stop_s:2.0 ();
  ignore (Trace.with_span ~cat:"t" "alloc" (fun () -> List.init 100 Fun.id));
  let spans =
    List.map
      (fun (s : Trace.span) ->
        if s.Trace.name = "dag_build" then { s with Trace.minor_words = 270_411 }
        else s)
      (Trace.snapshot ())
  in
  check_bool "round trips exactly" true (roundtrip spans = spans);
  check_bool "minor words survive" true
    (List.exists
       (fun s -> s.Trace.name = "dag_build" && s.Trace.minor_words = 270_411)
       (roundtrip spans));
  (* the charge is an arg on the wire, omitted when 0 *)
  let text = Stats.Json.to_string (Trace.to_json spans) in
  check_bool "minor_words arg written" true
    (contains text "\"minor_words\": 270411");
  check_bool "zero charge omitted" false
    (contains text "\"minor_words\": 0");
  check_bool "empty list round trips" true (roundtrip [] = [])

(* the span is the record of a phase's allocation: it charges what its
   body allocated on the calling domain, also when the body raises *)
let test_trace_span_minor_words () =
  with_obs @@ fun () ->
  let l = Trace.with_span ~cat:"test" "alloc" (fun () -> List.init 1000 Fun.id) in
  check_int "result through" 1000 (List.length l);
  (try
     Trace.with_span ~cat:"test" "doomed" (fun () ->
         ignore (Sys.opaque_identity (List.init 1000 Fun.id));
         failwith "boom")
   with Failure _ -> ());
  ignore (Trace.with_span ~cat:"test" "quiet" (fun () -> 41 + 1));
  let spans = Trace.snapshot () in
  let words name =
    match List.find_opt (fun s -> s.Trace.name = name) spans with
    | Some s -> s.Trace.minor_words
    | None -> Alcotest.failf "no %s span" name
  in
  (* 1000 cons cells of 3 words each *)
  check_bool "List.init 1000 charged >= 3000 words" true (words "alloc" >= 3000);
  check_bool "aborted span charged" true (words "doomed" >= 3000);
  check_int "no allocation, no charge" 0 (words "quiet");
  match List.find_opt (fun p -> p.Trace.phase = "alloc") (Trace.summary spans) with
  | Some p -> check_int "summary sums the charge" (words "alloc") p.Trace.minor_words
  | None -> Alcotest.fail "no alloc phase"

(* A 64 KiB [^] goes straight to the calling domain's major heap:
   8,194 words (8,192 of bytes, a header word, a padding word).  Plain
   [Gc.quick_stat] read 0 of them on OCaml 5.1; the totals must see them
   all.  Promotion by the collections themselves is excluded.  In the
   full suite the first reading sometimes carries ~4,400 more words from
   elsewhere in the process (earlier tests' domains); such words only
   add, so the least of a few readings is the [^] alone. *)
let test_trace_gc_totals_major () =
  let half = Sys.opaque_identity (String.make 32768 'a') in
  let direct (s : Gc.stat) = s.Gc.major_words -. s.Gc.promoted_words in
  let reading () =
    let s0 = Trace.gc_totals () in
    let whole = Sys.opaque_identity (half ^ half) in
    let s1 = Trace.gc_totals () in
    check_int "64 KiB string" 65536 (String.length whole);
    int_of_float (direct s1 -. direct s0)
  in
  let rec least k best =
    if k = 0 || best = 8194 then best else least (k - 1) (min best (reading ()))
  in
  check_int "direct major words" 8194 (least 10 max_int)

let test_trace_metadata_skipped () =
  with_obs @@ fun () ->
  Trace.record ~cat:"t" ~name:"work" ~start_s:1.0 ~stop_s:2.0 ();
  let spans = Trace.snapshot () in
  let json =
    Trace.to_json ~pid_names:[ (0, "schedtool"); (9, "ghost") ] spans
  in
  let text = Stats.Json.to_string json in
  check_bool "metadata for present pid" true
    (contains text "\"process_name\"");
  check_bool "metadata names the pid" true (contains text "schedtool");
  check_bool "no metadata for absent pid" false (contains text "ghost");
  (* the reader skips the "M" metadata event and returns only spans *)
  match Stats.Json.of_string text with
  | Error msg -> Alcotest.failf "parse: %s" msg
  | Ok j -> (
      match Trace.events_of_json j with
      | Ok spans' -> check_bool "metadata skipped" true (spans' = spans)
      | Error e -> Alcotest.failf "decode: %s" (Stats.Json.error_to_string e))

let test_trace_decode_adversarial () =
  let decode text =
    match Stats.Json.of_string text with
    | Error msg -> Error msg
    | Ok json -> (
        match Trace.events_of_json json with
        | Ok _ -> Ok ()
        | Error e -> Error (Stats.Json.error_to_string e))
  in
  (match decode "3" with
  | Error msg ->
      check_bool "root type named" true (contains msg "expected an object")
  | Ok () -> Alcotest.fail "non-object accepted");
  (match decode "{\"traceEvents\": 3}" with
  | Error msg -> check_bool "wrong type named" true (contains msg "traceEvents")
  | Ok () -> Alcotest.fail "non-list accepted");
  (match decode "{\"traceEvents\": [{\"ph\": \"X\", \"name\": \"x\"}]}" with
  | Error msg ->
      check_bool "missing ts located" true (contains msg "traceEvents[0]")
  | Ok () -> Alcotest.fail "missing ts accepted");
  (match
     decode
       "{\"traceEvents\": [{\"ph\": \"X\", \"name\": \"x\", \"ts\": 1, \
        \"pid\": 0, \"tid\": 0, \"args\": 5}]}"
   with
  | Error msg -> check_bool "bad args located" true (contains msg "args")
  | Ok () -> Alcotest.fail "non-object args accepted");
  (* a truncated file fails in the JSON parser, not with an exception *)
  (match decode "{\"traceEvents\": [" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "truncated trace accepted");
  (* unknown phases are skipped, not errors *)
  match decode "{\"traceEvents\": [{\"ph\": \"B\", \"name\": \"x\"}]}" with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "begin-phase event rejected: %s" msg

let test_trace_summary () =
  let span name ts dur =
    { Trace.name; cat = "t"; ts_us = ts; dur_us = dur;
      minor_words = int_of_float dur * 10; pid = 0; tid = 0; args = [] }
  in
  let stats =
    Trace.summary [ span "a" 0.0 5.0; span "b" 1.0 100.0; span "a" 2.0 7.0 ]
  in
  match stats with
  | [ b; a ] ->
      (* sorted by descending total *)
      check_string "largest first" "b" b.Trace.phase;
      check_int "b spans" 1 b.Trace.spans;
      check_string "then a" "a" a.Trace.phase;
      check_int "a spans" 2 a.Trace.spans;
      check_float "a total" 12.0 a.Trace.total_us;
      check_float "a max" 7.0 a.Trace.max_us;
      check_int "a minor words summed" 120 a.Trace.minor_words
  | l -> Alcotest.failf "expected 2 phases, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* counts: a phase's counts ride on its span as args *)

(* the integer arg [k] of [s], 0 when absent *)
let int_arg k (s : Trace.span) =
  match List.assoc_opt k s.Trace.args with Some (Json.Int n) -> n | _ -> 0

let span_named name spans =
  match List.filter (fun s -> s.Trace.name = name) spans with
  | [ s ] -> s
  | l -> Alcotest.failf "expected one %s span, got %d" name (List.length l)

let test_count_innermost_span () =
  (* tracing off: nothing is kept, not even for a later span *)
  obs_off ();
  Trace.count "lost" 5;
  with_obs @@ fun () ->
  (* no span open: dropped *)
  Trace.count "lost" 7;
  Trace.with_span "outer" (fun () ->
      Trace.count "n" 1;
      Trace.with_span "inner" (fun () ->
          Trace.count "n" 10;
          Trace.count "m" 2;
          Trace.count "n" 10);
      Trace.count "n" 100;
      try
        Trace.with_span "raises" (fun () ->
            Trace.count "n" 1000;
            failwith "boom")
      with Failure _ -> ());
  let spans = Trace.snapshot () in
  let args name = (span_named name spans).Trace.args in
  check_bool "inner: summed, first-count order" true
    (args "inner" = [ ("n", Json.Int 20); ("m", Json.Int 2) ]);
  check_bool "outer: its own counts only" true
    (args "outer" = [ ("n", Json.Int 101) ]);
  check_bool "a raising span keeps its counts" true
    (args "raises" = [ ("n", Json.Int 1000) ]);
  check_bool "nothing outside a span or with tracing off" true
    (List.for_all (fun s -> int_arg "lost" s = 0) spans);
  (* the stack is empty again: a later span starts from nothing *)
  Trace.reset ();
  Trace.with_span ~args:[ ("k", Json.Int 1) ] "fresh" (fun () -> ());
  let fresh = span_named "fresh" (Trace.snapshot ()) in
  check_bool "given args untouched without counts" true
    (fresh.Trace.args = [ ("k", Json.Int 1) ])

(* the engine's aggregate pick span on a dependence chain: one candidate
   per pick, and each arc's latency beyond one cycle stalls the issue
   (a 6-cycle and a 2-cycle arc: stalls of several cycles each) *)
let test_count_heur_dynamic () =
  let block =
    block_of_asm
      "fdivd %f0, %f2, %f4\nfaddd %f4, %f4, %f6\nfaddd %f6, %f6, %f8\n"
  in
  let dag =
    Builder.build Batch.section6.Batch.algorithm Batch.section6.Batch.opts
      block
  in
  let stalls =
    List.fold_left
      (fun acc (a : Dag.arc) -> acc + max 0 (a.Dag.latency - 1))
      0 (Dag.arcs dag)
  in
  check_int "the chain stalls" 6 stalls;
  with_obs @@ fun () ->
  ignore (Batch.run_here Batch.section6 [ block ]);
  let s = span_named "heur_dynamic" (Trace.snapshot ()) in
  check_int "picks" 3 (int_arg "picks" s);
  check_int "one candidate per pick" 3 (int_arg "candidates" s);
  check_int "stall cycles" stalls (int_arg "stall_cycles" s)

(* Chrome trace bytes of a counted span: given args, then the counts in
   first-count order, then the minor-words charge *)
let test_count_args_golden () =
  with_obs @@ fun () ->
  Trace.with_span ~cat:"pipeline" ~args:[ ("block", Json.Int 3) ] "dag_build"
    (fun () ->
      Trace.count "table_probes" 7;
      Trace.count "alias_entries_scanned" 2;
      Trace.count "table_probes" 1);
  let s = span_named "dag_build" (Trace.snapshot ()) in
  let s =
    { s with Trace.ts_us = 1.0; dur_us = 2.0; minor_words = 5; tid = 0 }
  in
  check_string "golden bytes"
    {|{"name": "dag_build", "cat": "pipeline", "ph": "X", "ts": 1.0, "dur": 2.0, "pid": 0, "tid": 0, "args": {"block": 3, "table_probes": 8, "alias_entries_scanned": 2, "minor_words": 5}}|}
    (Stats.Json.to_string (Trace.span_to_json s))

(* ------------------------------------------------------------------ *)
(* pool instrumentation *)

let test_pool_instrumented () =
  with_obs @@ fun () ->
  let results = Pool.map ~domains:2 (fun x -> x * x) [ 1; 2; 3; 4; 5 ] in
  Alcotest.(check (list int)) "results" [ 1; 4; 9; 16; 25 ] results;
  let spans = Trace.snapshot () in
  let count name =
    List.length (List.filter (fun s -> s.Trace.name = name) spans)
  in
  check_int "one queue_wait per task" 5 (count "queue_wait");
  check_int "one task_run per task" 5 (count "task_run");
  (* every chunk's queue_wait runs from the map's start *)
  (match List.filter (fun s -> s.Trace.name = "queue_wait") spans with
  | w :: ws ->
      List.iter
        (fun s -> check_bool "queue_wait from the map's start" true
            (s.Trace.ts_us = w.Trace.ts_us))
        ws
  | [] -> ());
  List.iter
    (fun s ->
      check_string "pool category" "pool" s.Trace.cat;
      check_bool "duration non-negative" true (s.Trace.dur_us >= 0.0))
    spans

(* ------------------------------------------------------------------ *)
(* differential: observability changes no scheduling result *)

let test_batch_differential () =
  obs_off ();
  let blocks = Profiles.generate Profiles.grep in
  let off_results = Batch.run ~domains:2 Batch.section6 blocks in
  let on_results =
    with_obs (fun () -> Batch.run ~domains:2 Batch.section6 blocks)
  in
  List.iter2
    (fun (a : Batch.result) (b : Batch.result) ->
      check_bool "identical up to timing" true
        (Batch.strip_timing a = Batch.strip_timing b))
    off_results on_results

(* every integer arg but the block id, summed per (span, arg) *)
let summed_counts spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s : Trace.span) ->
      List.iter
        (function
          | k, Json.Int n when k <> "block" ->
              let key = (s.Trace.name, k) in
              Hashtbl.replace tbl key
                (n + Option.value (Hashtbl.find_opt tbl key) ~default:0)
          | _ -> ())
        s.Trace.args)
    spans;
  List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) tbl [])

let test_batch_records_pipeline_phases () =
  with_obs @@ fun () ->
  let blocks = Profiles.generate Profiles.grep in
  let results = Batch.run ~domains:1 Batch.section6 blocks in
  let spans = Trace.snapshot () in
  let names = List.sort_uniq compare (List.map (fun s -> s.Trace.name) spans) in
  List.iter
    (fun phase ->
      check_bool (phase ^ " span present") true (List.mem phase names))
    [ "dag_build"; "heur_static"; "heur_dynamic"; "schedule"; "verify";
      "score"; "fingerprint"; "queue_wait"; "task_run" ];
  (* heur_dynamic is one aggregate span per block, tagged as such *)
  (match List.find_opt (fun s -> s.Trace.name = "heur_dynamic") spans with
  | Some s ->
      check_bool "aggregate tag" true
        (List.assoc_opt "aggregate" s.Trace.args = Some (Json.Bool true))
  | None -> Alcotest.fail "no heur_dynamic span");
  (* the counts on the phases' spans *)
  let sum name k =
    List.fold_left
      (fun acc s -> if s.Trace.name = name then acc + int_arg k s else acc)
      0 spans
  in
  let report = Batch.report ~domains:1 ~wall_s:0.0 results in
  check_int "dag_build arcs sum to the report's" report.Batch.arcs
    (sum "dag_build" "arcs");
  check_bool "probes counted" true (sum "dag_build" "table_probes" > 0);
  List.iter
    (fun s ->
      if s.Trace.name = "heur_dynamic" then
        check_bool "candidates >= picks" true
          (int_arg "candidates" s >= int_arg "picks" s))
    spans;
  (* the counts do not depend on the number of domains *)
  let one = summed_counts spans in
  Trace.reset ();
  ignore (Batch.run ~domains:3 Batch.section6 blocks);
  check_bool "summed args equal at 1 and 3 domains" true
    (summed_counts (Trace.snapshot ()) = one)

(* ------------------------------------------------------------------ *)
(* counts on dag_build *)

(* the counts on the dag_build span of one traced build of [block] *)
let build_counts alg opts block =
  with_obs @@ fun () ->
  let dag =
    Trace.with_span "dag_build" (fun () -> Builder.build alg opts block)
  in
  (dag, span_named "dag_build" (Trace.snapshot ()))

(* Figure 1's direct RAW arc 1 -> 3 is covered by 1 -> 2 -> 3: both
   transitive-free builders prune exactly it; a table builder prunes
   nothing and records no such count *)
let test_count_transitive_pruned () =
  List.iter
    (fun alg ->
      let _, s = build_counts alg figure1_opts (figure1_block ()) in
      check_int (Builder.to_string alg ^ " prunes one arc") 1
        (int_arg "transitive_arcs_pruned" s))
    [ Builder.Reach_backward; Builder.Landskov ];
  let _, s =
    build_counts Builder.Table_forward figure1_opts (figure1_block ())
  in
  check_bool "table-forward records no pruning" true
    (List.assoc_opt "transitive_arcs_pruned" s.Trace.args = None)

(* [ld] then an [add] that reads and rewrites its target: RAW and WAW on
   one pair coalesce into one arc *)
let test_count_coalesced_arcs () =
  let block = block_of_asm "ld [%fp - 8], %o1\nadd %o1, 1, %o1\n" in
  let dag, s = build_counts Builder.Table_forward Opts.default block in
  check_int "one arc" 1 (Dag.n_arcs dag);
  check_bool "coalesced" true (int_arg "arcs_coalesced" s >= 1);
  check_bool "probes counted" true (int_arg "table_probes" s > 0)

(* ------------------------------------------------------------------ *)
(* explain: decision traces and the decisiveness fold over them *)

let sample_decisions =
  [ {
      Explain.block = 3;
      strategy = "forward/winnowing: a > b";
      time = 2;
      candidates = [ 1; 4; 7 ];
      steps =
        [ { Explain.heuristic = "a"; best = 5; survivors = [ 1; 4 ] };
          { Explain.heuristic = "b"; best = -2; survivors = [ 4 ] } ];
      chosen = 4;
      tie_break = false;
    };
    {
      Explain.block = 3;
      strategy = "forward/winnowing: a > b";
      time = 3;
      candidates = [ 7 ];
      steps = [];
      chosen = 7;
      tie_break = false;
    } ]

(* A decision of strategy [signature] over [cands] candidates (ids
   0 .. cands-1) whose trail keeps [counts] survivors rank by rank (a
   prefix each time); it chooses the first survivor, or with [over] the
   last candidate, outside the final survivors. *)
let shaped ?(signature = "s") ?(tie = false) ?(over = false) cands counts =
  {
    Explain.block = 0;
    strategy = signature;
    time = 0;
    candidates = List.init cands Fun.id;
    steps =
      List.map
        (fun k ->
          { Explain.heuristic = "h"; best = 0; survivors = List.init k Fun.id })
        counts;
    chosen = (if over then cands - 1 else 0);
    tie_break = tie;
  }

(* The fold counts every decision a traced run records; a bare run makes
   the same order and keeps nothing. *)
let test_explain_fold_counts_traced () =
  let dag = dag_of_asm "add %o1, 1, %o2\nadd %o3, 1, %o4\nadd %o2, %o4, %o5" in
  let annot = Static_pass.compute dag in
  let config = Published.engine_config Published.warren in
  let order, decisions = Engine.run_traced config ~annot dag in
  Alcotest.(check (array int)) "run = run_traced" (Engine.run config ~annot dag) order;
  let s = decisiveness config (List.map (explain_decision config ~block:0) decisions) in
  check_string "signature" (Engine.signature config) s.Explain.signature;
  check_int "one decision per issue" 3 s.Explain.decisions;
  (* two ready at the start; once one issues, each later pick is forced *)
  check_int "forced" 2 s.Explain.forced;
  let empty = decisiveness config [] in
  check_int "no decisions" 0 empty.Explain.decisions;
  check_int "every rank listed" (List.length config.Engine.keys)
    (List.length empty.Explain.ranks)

let test_explain_observe_aggregates () =
  let s =
    Explain.decisiveness ~signature:"f/test: A > B" ~keys:[ "A"; "B" ]
      [ shaped 4 [ 2; 1 ];              (* B settles it *)
        shaped 3 [ 3; 2 ] ~tie:true;    (* trail leaves two, order decides *)
        shaped 2 [ 1 ];                 (* A settles it, B never reached *)
        shaped 1 [];                    (* single candidate *)
        shaped 5 [ 2; 1 ] ~over:true ]  (* weights overruled the trail *)
  in
  check_string "signature" "f/test: A > B" s.Explain.signature;
  Alcotest.(check (list string)) "keys" [ "A"; "B" ] s.Explain.keys;
  check_int "decisions" 5 s.Explain.decisions;
  check_int "forced" 1 s.Explain.forced;
  check_int "tie breaks" 1 s.Explain.tie_breaks;
  check_int "overruled" 1 s.Explain.overruled;
  (match s.Explain.ranks with
  | [ a; b ] ->
      check_int "rank a" 1 a.Explain.rank;
      check_string "heuristic a" "A" a.Explain.heuristic;
      check_int "A consulted" 4 a.Explain.consulted;
      check_int "A decided" 1 a.Explain.decided;
      check_int "A eliminated" 6 a.Explain.eliminated;
      check_int "B consulted" 3 b.Explain.consulted;
      check_int "B decided" 1 b.Explain.decided;
      check_int "B eliminated" 3 b.Explain.eliminated
  | _ -> Alcotest.fail "expected two ranks");
  Alcotest.(check (list string)) "all consulted" [] (Explain.never_consulted s)

let test_explain_decision_roundtrip () =
  List.iter
    (fun d ->
      match Explain.decision_of_json (Explain.decision_to_json d) with
      | Ok d' -> check_bool "decision round trip" true (d = d')
      | Error e -> Alcotest.fail (Json.error_to_string e))
    sample_decisions;
  let text = Explain.decisions_to_jsonl sample_decisions in
  (match Explain.decisions_of_jsonl text with
  | Ok ds -> check_bool "jsonl round trip" true (ds = sample_decisions)
  | Error e -> Alcotest.fail (Json.error_to_string e));
  (* blank lines are skipped *)
  match Explain.decisions_of_jsonl ("\n" ^ text ^ "\n\n") with
  | Ok ds -> check_bool "blank lines skipped" true (ds = sample_decisions)
  | Error e -> Alcotest.fail (Json.error_to_string e)

let test_explain_decision_adversarial () =
  let fail_with json needle =
    match Explain.decision_of_json json with
    | Ok _ -> Alcotest.failf "decode should fail (%s)" needle
    | Error e ->
        let msg = Json.error_to_string e in
        check_bool (Printf.sprintf "%S names %S" msg needle) true
          (contains msg needle)
  in
  fail_with (Json.Obj []) "block";
  fail_with
    (Json.Obj
       [ ("block", Json.Int 0); ("strategy", Json.String "s");
         ("time", Json.Int 0); ("candidates", Json.List []);
         ("steps", Json.List []); ("chosen", Json.Int 0);
         ("tie_break", Json.Int 1) ])
    "tie_break";
  fail_with
    (Json.Obj
       [ ("block", Json.Int 0); ("strategy", Json.String "s");
         ("time", Json.Int 0); ("candidates", Json.List []);
         ("steps",
          Json.List
            [ Json.Obj
                [ ("heuristic", Json.String "h"); ("best", Json.Int 0);
                  ("survivors", Json.String "nope") ] ]);
         ("chosen", Json.Int 0); ("tie_break", Json.Bool false) ])
    "survivors";
  (* the JSONL reader reports 1-based line numbers, and the field *)
  (match Explain.decisions_of_jsonl "{\"block\":1}\n" with
  | Ok _ -> Alcotest.fail "should fail"
  | Error e ->
      let msg = Json.error_to_string e in
      check_bool msg true (contains msg "line 1" && contains msg "strategy"));
  let good = Explain.decisions_to_jsonl sample_decisions in
  match Explain.decisions_of_jsonl (good ^ "not json\n") with
  | Ok _ -> Alcotest.fail "should fail"
  | Error e ->
      let msg = Json.error_to_string e in
      check_bool msg true
        (contains msg (Printf.sprintf "line %d" (List.length sample_decisions + 1)))

(* Explain's JSONL reader goes through [Json.of_jsonl]: blank lines are
   skipped but counted, so an error names the physical line. *)
let test_jsonl_physical_lines () =
  let line_of = function
    | Ok _ -> Alcotest.fail "should fail"
    | Error e -> e.Json.path
  in
  Alcotest.(check (list string))
    "explain" [ "line 3" ]
    (line_of (Explain.decisions_of_jsonl "\n\nnot json\n"));
  let good = Explain.decisions_to_jsonl sample_decisions in
  Alcotest.(check (list string))
    "after leading blanks, a bad decision" [ "line 5"; "strategy" ]
    (line_of (Explain.decisions_of_jsonl ("\n\n" ^ good ^ "{\"block\": 1}\n")));
  match Json.of_jsonl (fun ~path:_ j -> Ok j) "\n \n1\n\n[2]\n" with
  | Ok vs -> check_bool "values in order" true (vs = [ Json.Int 1; Json.List [ Json.Int 2 ] ])
  | Error e -> Alcotest.fail (Json.error_to_string e)

let test_explain_stats_roundtrip () =
  let s =
    [ Explain.decisiveness ~signature:"sig1" ~keys:[ "A"; "B" ]
        [ shaped ~signature:"sig1" 4 [ 2; 1 ] ];
      Explain.decisiveness ~signature:"sig2" ~keys:[ "C" ]
        [ shaped ~signature:"sig2" 2 [ 2 ] ~tie:true ] ]
  in
  match Explain.of_json (Explain.to_json s) with
  | Ok s' -> check_bool "stats round trip" true (Explain.equal s s')
  | Error e -> Alcotest.fail (Json.error_to_string e)

let test_explain_never_consulted () =
  Alcotest.(check (list string))
    "later ranks never reached" [ "B"; "C" ]
    (Explain.never_consulted
       (Explain.decisiveness ~signature:"s" ~keys:[ "A"; "B"; "C" ]
          [ shaped 3 [ 1 ] ]))

(* Random decision lists over several strategies: trails shorter than,
   as long as and longer than the key list, forced picks, tie-breaks,
   chosen nodes outside the last survivors, and the odd empty ready set
   the engine never makes. *)
let gen_strategies =
  let open QCheck.Gen in
  let* nsig = int_range 1 3 in
  let* nkeys = list_repeat nsig (int_range 0 4) in
  let strategies =
    List.mapi
      (fun i n -> (Printf.sprintf "s%d" i, List.init n (Printf.sprintf "k%d")))
      nkeys
  in
  let decision =
    let* signature, keys = oneofl strategies in
    let* cands = int_range 0 6 in
    let* nsteps = int_range 0 (List.length keys + 1) in
    let rec counts prev k =
      if k = 0 then return []
      else
        let* c = int_range (min 1 prev) prev in
        let* rest = counts c (k - 1) in
        return (c :: rest)
    in
    let* counts = counts cands nsteps in
    let* tie = bool in
    let* over = bool in
    return (shaped ~signature ~tie ~over:(over && cands > 0) cands counts)
  in
  let* decisions = list_size (int_range 0 30) decision in
  return (strategies, decisions)

let arb_strategies =
  QCheck.make
    ~print:(fun (_, ds) -> Explain.decisions_to_jsonl ds)
    gen_strategies

(* what the registry held once every decision was recorded as the
   engine recorded it *)
let yardstick strategies decisions =
  let reg = Explain_legacy.create () in
  List.iter
    (fun (d : Explain.decision) ->
      let ncand = List.length d.Explain.candidates in
      let overruled =
        match List.rev d.Explain.steps with
        | last :: _ -> not (List.mem d.Explain.chosen last.Explain.survivors)
        | [] -> false
      in
      Explain_legacy.record
        (Explain_legacy.cell reg ~signature:d.Explain.strategy
           ~keys:(List.assoc d.Explain.strategy strategies))
        ~candidates:ncand
        ~survivor_counts:
          (List.map (fun s -> List.length s.Explain.survivors) d.Explain.steps)
        ~forced:(ncand = 1) ~tie_break:d.Explain.tie_break ~overruled)
    decisions;
  Explain_legacy.snapshot reg

let fold strategies decisions =
  List.filter_map
    (fun (signature, keys) ->
      let st =
        Explain.decisiveness ~signature ~keys
          (List.filter (fun d -> d.Explain.strategy = signature) decisions)
      in
      if st.Explain.decisions = 0 then None else Some st)
    strategies
  |> List.sort (fun a b -> compare a.Explain.signature b.Explain.signature)

let test_explain_fold_yardstick =
  qcheck ~count:500 "explain: fold = registry yardstick" arb_strategies
    (fun (strategies, decisions) ->
      Explain.equal (fold strategies decisions) (yardstick strategies decisions))

let test_explain_stats_adversarial () =
  (match Explain.of_json (Json.String "nope") with
  | Ok _ -> Alcotest.fail "should fail"
  | Error e ->
      check_bool "names the type" true
        (contains (Json.error_to_string e) "list"));
  match
    Explain.of_json
      (Json.List [ Json.Obj [ ("signature", Json.String "s") ] ])
  with
  | Ok _ -> Alcotest.fail "should fail"
  | Error e ->
      check_bool "names the field" true
        (contains (Json.error_to_string e) "keys")

let suite =
  [ quick "clock: monotonic" test_clock_monotonic;
    quick "clock: clamping" test_clock_clamp;
    quick "clock: moves with the wall clock" test_clock_moves;
    quick "clock: a span over a sleep has a duration" test_span_duration_positive;
    quick "trace: disabled is invisible" test_trace_disabled_is_invisible;
    quick "trace: with_span records" test_trace_with_span_records;
    quick "trace: records on exception" test_trace_with_span_on_exception;
    quick "trace: snapshot sorted" test_trace_snapshot_sorted;
    quick "trace: JSON round trip" test_trace_json_roundtrip;
    quick "trace: metadata events" test_trace_metadata_skipped;
    quick "trace: adversarial decode" test_trace_decode_adversarial;
    quick "trace: phase summary" test_trace_summary;
    quick "trace: count lands on the innermost span" test_count_innermost_span;
    quick "trace: heur_dynamic counts candidates and stalls"
      test_count_heur_dynamic;
    quick "trace: count args golden bytes" test_count_args_golden;
    quick "pool: queue_wait/task_run instrumented" test_pool_instrumented;
    quick "batch: differential off vs on" test_batch_differential;
    quick "batch: pipeline phases recorded" test_batch_records_pipeline_phases;
    quick "trace: dag_build counts coalesced arcs" test_count_coalesced_arcs;
    quick "trace: span charges minor words" test_trace_span_minor_words;
    quick "trace: transitive-free builders count pruned arcs"
      test_count_transitive_pruned;
    quick "explain: fold counts traced picks" test_explain_fold_counts_traced;
    quick "explain: observe aggregates" test_explain_observe_aggregates;
    quick "explain: decision round trip" test_explain_decision_roundtrip;
    quick "explain: decision adversarial decode"
      test_explain_decision_adversarial;
    quick "explain: stats round trip" test_explain_stats_roundtrip;
    quick "explain: never consulted" test_explain_never_consulted;
    quick "explain: stats adversarial decode" test_explain_stats_adversarial;
    test_explain_fold_yardstick;
    quick "json: JSONL lines are physical" test_jsonl_physical_lines;
    quick "trace: GC totals count direct major words" test_trace_gc_totals_major ]
