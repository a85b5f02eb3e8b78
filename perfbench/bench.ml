(* The repository's benchmark: workloads over the paper's pipeline
   (parse -> basic blocks -> DAG construction -> static heuristic pass ->
   list scheduling -> verify -> score), measured end to end with tracing
   off, or layer by layer with --trace 1.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               --schedtool PATH [--tmp DIR]

   Prints human-readable progress on stderr and, as the last line of
   stdout, one JSON object {correct, attempted, failed, metrics}.  Exits
   1 when any output check fails.  perfbench/README.md describes the
   workloads and metrics; perfbench/run.py builds this program and
   schedtool, then runs it. *)

open Dagsched
open Perfbench
module L = Layers

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* ------------------------------------------------------------------ *)
(* results *)

type metric = { name : string; value : float; unit : string; samples : int }

let m name value unit samples = { name; value; unit; samples }

type result = { attempted : int; failed : int; metrics : metric list }

(* the result line on stdout; each metric with its sample count on stderr *)
let print_result r =
  List.iter
    (fun m -> log "%-28s %16.6g %-10s (%d samples)" m.name m.value m.unit m.samples)
    r.metrics;
  let metric m =
    (m.name, Json.Obj [ ("value", Json.Float m.value); ("unit", Json.String m.unit) ])
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool (r.failed = 0));
            ("attempted", Json.Int r.attempted);
            ("failed", Json.Int r.failed);
            ("metrics", Json.Obj (List.map metric r.metrics)) ]))

(* the per-layer metrics every traced run prints; a workload that
   bypasses a layer reports it as 0 *)
let per_layer_listed =
  [ ("isa.parse_s", "s"); ("isa.parse_mw", "Mw"); ("cfg.partition_s", "s");
    ("dag.build_s.table-forward", "s"); ("dag.build_mw", "Mw");
    ("dag.arcs_per_insn", "arcs/insn"); ("dag.fingerprint_s", "s");
    ("heur.static_s", "s"); ("heur.static_mw", "Mw"); ("sched.engine_s", "s");
    ("sched.engine_mw", "Mw"); ("sched.verify_s", "s");
    ("machine.simulate_s", "s"); ("machine.simulate_mw", "Mw");
    ("driver.unattributed_s", "s"); ("serve.hit_us_p50", "us");
    ("serve.miss_us_p50", "us"); ("serve.wire_us_p50", "us");
    ("cache.hit_ratio", "ratio"); ("cache.evictions", "count");
    ("trace.attributed_share", "ratio"); ("trace.overhead_pct", "%") ]

(* [measured] (name, value, unit) fills [per_layer_listed] in its order;
   what it measures beyond the list (the n² builders and Fixup, which
   only table2_window runs) follows.  Every value rests on [samples]
   samples. *)
let per_layer ~samples measured =
  let listed =
    List.map
      (fun (name, unit) ->
        match List.find_opt (fun (n, _, _) -> n = name) measured with
        | Some (_, v, _) -> m name v unit samples
        | None -> m name 0.0 unit 0)
      per_layer_listed
  in
  listed
  @ List.filter_map
      (fun (name, v, unit) ->
        if List.mem_assoc name per_layer_listed then None
        else Some (m name v unit samples))
      measured

(* the pipeline layers' metrics over traced passes [layers] of [insns]
   instructions each: medians of per-pass seconds (divided by [slowdown])
   and megawords *)
let layer_metrics ?(slowdown = 1.0) layers ~insns =
  let med f = Sample.median (List.map f layers) in
  let s (a : L.t -> L.acc) = med (fun t -> (a t).L.s /. slowdown) in
  let mw (a : L.t -> L.acc) = med (fun t -> (a t).L.words /. 1e6) in
  let builders =
    List.filter_map
      (fun alg ->
        let v = s (fun t -> L.builder t alg) in
        if v > 0.0 then Some ("dag.build_s." ^ Builder.to_string alg, v, "s") else None)
      Builder.all
  in
  let fixup = s (fun t -> t.L.fixup) in
  [ ("isa.parse_s", s (fun t -> t.L.parse), "s");
    ("isa.parse_mw", mw (fun t -> t.L.parse), "Mw");
    ("cfg.partition_s", s (fun t -> t.L.partition), "s");
    ("dag.build_mw", med (fun t -> L.build_words t /. 1e6), "Mw");
    ("dag.arcs_per_insn", med (fun t -> float_of_int t.L.arcs /. float_of_int insns), "arcs/insn");
    ("dag.fingerprint_s", s (fun t -> t.L.fingerprint), "s");
    ("heur.static_s", s (fun t -> t.L.static), "s");
    ("heur.static_mw", mw (fun t -> t.L.static), "Mw");
    ("sched.engine_s", s (fun t -> t.L.engine), "s");
    ("sched.engine_mw", mw (fun t -> t.L.engine), "Mw");
    ("sched.verify_s", s (fun t -> t.L.verify), "s");
    ("machine.simulate_s", s (fun t -> t.L.simulate), "s");
    ("machine.simulate_mw", mw (fun t -> t.L.simulate), "Mw") ]
  @ builders
  @ (if fixup > 0.0 then
       [ ("sched.fixup_s", fixup, "s"); ("sched.fixup_mw", mw (fun t -> t.L.fixup), "Mw") ]
     else [])

(* set up [n] times; the median host-corrected time is setup_s, the
   last set-up is kept and [discard] releases each other one as soon as
   it is done *)
let setup_median ~n ~discard setup =
  let rec go k times =
    let slowdown, (dt, x) = Calib.bracketed (fun () -> Sample.timed setup) in
    let times = (dt /. slowdown) :: times in
    if k <= 1 then (Sample.median times, x)
    else begin
      discard x;
      go (k - 1) times
    end
  in
  go n []

let setups = 3

(* ------------------------------------------------------------------ *)
(* batch workloads *)

(* One call of the pipeline over a program: parse -> partition ->
   Batch.run_on, or in the windowed workload one published strategy over
   every block.  [run] is the timed call; the conversion it returns runs
   untimed and gives the outcomes and the latencies of the requests the
   call served.  A program is one request; in the windowed workload each
   block through the strategy is one, timed on the worker.  [traced]
   makes the same library calls one layer at a time. *)
type call = {
  label : string;
  insns : int;
  blocks : Block.t list Lazy.t;  (* the blocks scheduled, for the replay *)
  run : Pool.t -> unit -> L.outcome list * float list;
  traced : L.t -> L.outcome list;
}

let section6_call (p : Corpus.program) =
  { label = p.Corpus.name;
    insns = p.Corpus.insns;
    blocks = lazy (Cfg_builder.partition (Parser.parse_program p.Corpus.text));
    run =
      (fun pool ->
        let blocks = Cfg_builder.partition (Parser.parse_program p.Corpus.text) in
        let results = Batch.run_on ~pool Batch.section6 blocks in
        fun () -> (List.map L.of_batch results, []));
    traced = (fun t -> L.section6_program t Batch.section6 p.Corpus.text) }

(* the paper's Table-4 windowed row: Symbolic disambiguation *)
let published_opts = { Opts.default with Opts.strategy = Disambiguate.Symbolic }

let published_call blocks (spec : Published.spec) =
  { label = spec.Published.short;
    insns = Corpus.insns_of blocks;
    blocks = lazy blocks;
    run =
      (fun pool ->
        (* the outcome is taken on the worker, so no DAG outlives its
           block *)
        let timed =
          Pool.map_on pool ~chunk:Pool.default_chunk
            (fun b ->
              Sample.timed (fun () ->
                  let s = Published.run ~opts:published_opts spec b in
                  { L.order = s.Schedule.order; fingerprint = 0L;
                    arcs = Dag.n_arcs s.Schedule.dag; original_cycles = 0;
                    cycles = Schedule.cycles s; stalls = 0;
                    verified = Result.is_ok (Verify.check s) }))
            blocks
        in
        fun () -> (List.map snd timed, List.map fst timed));
    traced =
      (fun t -> List.map (L.published_block t ~opts:published_opts spec) blocks) }

let batch_calls ~seed = function
  | "table3_small" ->
      Some
        (fun () ->
          List.map section6_call
            (Corpus.table3_programs ~seed Corpus.table3_small))
  | "fpppp_giant" ->
      Some
        (fun () ->
          List.map section6_call
            (Corpus.table3_programs ~seed [ Profiles.fpppp ]))
  | "table2_window" ->
      Some
        (fun () ->
          let blocks = Corpus.fpppp_1000 ~seed in
          List.map (published_call blocks) Published.all)
  | _ -> None

(* The reference pass: its outcomes are what every later pass must
   reproduce, and [bad] marks the blocks whose schedule failed verify or
   the interpreter replay. *)
type reference = { outcomes : L.outcome array; bad : bool array }

let reference ~seed pool call =
  let outcomes = Array.of_list (fst (call.run pool ())) in
  let blocks = Array.of_list (Lazy.force call.blocks) in
  let bad =
    if Array.length blocks <> Array.length outcomes then
      Array.make (max 1 (Array.length outcomes)) true
    else
      Array.mapi
        (fun i (o : L.outcome) ->
          (not o.L.verified) || not (Replay.schedule_ok ~seed blocks.(i) o.L.order))
        outcomes
  in
  { outcomes; bad }

(* failed blocks of one pass's outcomes against the reference *)
let check_against r outcomes =
  let outcomes = Array.of_list outcomes in
  if Array.length outcomes <> Array.length r.outcomes then Array.length r.bad
  else begin
    let failed = ref 0 in
    Array.iteri
      (fun i o ->
        if r.bad.(i) || not (L.same_outcome o r.outcomes.(i)) then incr failed)
      outcomes;
    !failed
  end

type tally = { mutable attempted : int; mutable failed : int }

(* one untraced pass, checked against the references: its wall time
   and its request latencies *)
let untraced_pass tally pool calls refs =
  List.fold_left2
    (fun (wall, latencies) call r ->
      tally.attempted <- tally.attempted + Array.length r.bad;
      match Sample.timed (fun () -> call.run pool) with
      | dt, convert ->
          let outcomes, served = convert () in
          tally.failed <- tally.failed + check_against r outcomes;
          (wall +. dt, (if served = [] then [ dt ] else served) @ latencies)
      | exception e ->
          log "%s: %s" call.label (Printexc.to_string e);
          tally.failed <- tally.failed + Array.length r.bad;
          (wall, latencies))
    (0.0, []) calls refs

(* one traced pass, as a single task on the pool's worker: the domain the
   untraced pass runs on, so the two walls differ only by what
   [Batch.run_on] and [Published.run] do besides the layers' calls *)
let traced_pass tally pool calls refs =
  let t = L.create () in
  let run call =
    match Sample.timed (fun () -> call.traced t) with
    | dt, outcomes -> Ok (dt, outcomes)
    | exception e -> Error e
  in
  let results = List.hd (Pool.map_on pool (List.map run) [ calls ]) in
  let wall =
    List.fold_left2
      (fun wall call (r, result) ->
        tally.attempted <- tally.attempted + Array.length r.bad;
        match result with
        | Ok (dt, outcomes) ->
            tally.failed <- tally.failed + check_against r outcomes;
            wall +. dt
        | Error e ->
            log "%s traced: %s" call.label (Printexc.to_string e);
            tally.failed <- tally.failed + Array.length r.bad;
            wall)
      0.0 calls
      (List.combine refs results)
  in
  (wall, t)

let sum = List.fold_left ( +. ) 0.0

let run_batch ~seed ~seconds ~trace make =
  let setup_s, (calls, pool) =
    setup_median ~n:setups
      ~discard:(fun (_, pool) -> Pool.shutdown pool)
      (fun () ->
        let calls = make () in
        (calls, Pool.create ~domains:1 ()))
  in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let insns = List.fold_left (fun n r -> n + r.insns) 0 calls in
  let refs = List.map (reference ~seed pool) calls in
  let tally = { attempted = 0; failed = 0 } in
  List.iter
    (fun r -> Array.iter (fun b -> if b then tally.failed <- tally.failed + 1) r.bad)
    refs;
  tally.attempted <- List.fold_left (fun n r -> n + Array.length r.bad) 0 refs;
  let sched_cycles =
    List.fold_left
      (fun n r -> Array.fold_left (fun n (o : L.outcome) -> n + o.L.cycles) n r.outcomes)
      0 refs
  in
  log "set-up %.3fs; %d calls, %d insns a pass" setup_s (List.length calls) insns;
  if not trace then begin
    (* passes until [seconds] of pass time are measured, at least 3,
       each corrected by the host slowdown read on the worker just
       before and just after it *)
    let slowdown_on pool = List.hd (Pool.map_on pool Calib.slowdown [ () ]) in
    let passes = ref [] and measured = ref 0.0 and slowdowns = ref [] in
    let reading = ref (slowdown_on pool) in
    while !measured < seconds || List.length !passes < 3 do
      let wall, latencies = untraced_pass tally pool calls refs in
      let next = slowdown_on pool in
      let f = (!reading +. next) /. 2.0 in
      reading := next;
      measured := !measured +. wall;
      slowdowns := f :: !slowdowns;
      passes := (wall /. f, List.map (fun l -> l /. f) latencies) :: !passes
    done;
    (* allocation: one more pass on a pool of its own, counted once its
       domain is joined *)
    let words =
      let pool = Pool.create ~domains:1 () in
      let w0 = Sample.process_minor_words () in
      ignore (untraced_pass tally pool calls refs);
      Pool.shutdown pool;
      Sample.process_minor_words () -. w0
    in
    let passes = !passes in
    let n = List.length passes in
    let per_pass f = Sample.median (List.map f passes) in
    let req_us = List.concat_map (fun (_, l) -> List.map (fun s -> s *. 1e6) l) passes in
    let walls = List.map fst passes in
    log "%d passes, host-corrected: q1 %.4fs, median %.4fs, q3 %.4fs; median slowdown %.3f"
      n (Sample.percentile 0.25 walls) (Sample.median walls)
      (Sample.percentile 0.75 walls) (Sample.median !slowdowns);
    { attempted = tally.attempted;
      failed = tally.failed;
      metrics =
        [ m "setup_s" setup_s "s" setups;
          m "insns_per_s" (per_pass (fun (w, _) -> float_of_int insns /. w)) "insn/s" n;
          m "minor_words_per_insn" (words /. float_of_int insns) "words/insn" 1;
          m "peak_rss_mb" (Sample.peak_rss_mb ()) "MB" 1;
          m "sched_cycles" (float_of_int sched_cycles) "cycles" 1;
          m "req_us_p50" (Sample.median req_us) "us" (List.length req_us);
          m "req_us_p90" (Sample.percentile 0.90 req_us) "us" (List.length req_us);
          m "req_per_s"
            (per_pass (fun (w, l) -> float_of_int (List.length l) /. w))
            "1/s" n ] }
  end
  else begin
    (* untraced and traced passes alternate, at least 2 of each *)
    let untraced = ref [] and traced = ref [] and measured = ref 0.0 in
    while !measured < seconds || List.length !traced < 2 do
      let u, _ = untraced_pass tally pool calls refs in
      let tw, t = traced_pass tally pool calls refs in
      measured := !measured +. u +. tw;
      untraced := u :: !untraced;
      traced := (tw, t) :: !traced
    done;
    let layers = List.map snd !traced in
    let untraced_wall = Sample.median !untraced in
    let attributed = Sample.median (List.map L.attributed layers) in
    let traced_wall = Sample.median (List.map fst !traced) in
    log "%d untraced / traced pairs: %.4fs / %.4fs, attributed %.4fs"
      (List.length layers) untraced_wall traced_wall attributed;
    { attempted = tally.attempted;
      failed = tally.failed;
      metrics =
        per_layer ~samples:(List.length layers)
          (layer_metrics layers ~insns
          @ [ ("driver.unattributed_s", untraced_wall -. attributed, "s");
              ("trace.attributed_share", attributed /. untraced_wall, "ratio");
              ( "trace.overhead_pct",
                100.0 *. ((traced_wall /. untraced_wall) -. 1.0),
                "%" ) ]) }
  end

(* ------------------------------------------------------------------ *)
(* serve_zipf *)

let serve_requests = 2000
let serve_cache_entries = 24

type serve_setup = {
  programs : Corpus.program array;
  payloads : string array;
  stream : int array;
}

let serve_corpus ~seed =
  let programs = Corpus.serve_pool ~seed in
  { programs;
    payloads = Array.map (fun p -> Corpus.schedule_payload p.Corpus.text) programs;
    stream =
      Corpus.zipf_stream ~seed ~n:serve_requests ~items:(Array.length programs) }

let ping = {|{"op": "ping"}|}

type daemon = { pid : int; socket : string }

let daemons_started = ref 0

(* a fresh `schedtool serve -j 1` daemon on a socket of its own under
   [tmp] (relative, so long checkout paths stay under the socket path
   limit), answering pings *)
let start_daemon ~schedtool ~tmp =
  incr daemons_started;
  let socket =
    Filename.concat tmp
      (Printf.sprintf "serve-%d-%d.sock" (Unix.getpid ()) !daemons_started)
  in
  let pid =
    Unix.create_process schedtool
      [| schedtool; "serve"; "--socket"; socket; "-j"; "1"; "--cache-entries";
         string_of_int serve_cache_entries |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  let deadline = Sample.now () +. 30.0 in
  let rec await () =
    match Serve.request_once ~socket ping with
    | Ok _ -> { pid; socket }
    | Error _ when Sample.now () < deadline ->
        Unix.sleepf 0.005;
        await ()
    | Error msg ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        failwith ("serve daemon never answered: " ^ msg)
  in
  await ()

(* SIGINT drains the daemon; it exits 130 *)
let stop_daemon d =
  (try Unix.kill d.pid Sys.sigint with Unix.Unix_error _ -> ());
  match Unix.waitpid [] d.pid with
  | _, Unix.WEXITED 130 -> true
  | _ -> false

let cache_counts response =
  match Json.of_string response with
  | Error _ -> None
  | Ok json -> (
      match Json.member "cache" json with
      | None -> None
      | Some cache -> (
          let get k = Result.to_option (Json.get_int ~path:[] k cache) in
          match (get "hits", get "misses", get "evictions") with
          | Some h, Some m, Some e -> Some (h, m, e)
          | _ -> None))

type round = {
  latencies : float array;     (* seconds, per request of the stream *)
  corrected : float array;     (* the same, divided by the host slowdown *)
  wall : float;
  peak_mb : float;
  counts : (int * int * int) option;  (* daemon cache hits, misses, evictions *)
}

(* [segmented n f] runs [f first last] over the requests [0, n) in
   segments of 100, each bracketed by host slowdown readings, and returns
   every request's slowdown and the segments' host-corrected seconds *)
let segmented n f =
  let slowdown = Array.make n 1.0 and busy = ref 0.0 in
  let reading = ref (Calib.slowdown ()) in
  let first = ref 0 in
  while !first < n do
    let last = min n (!first + 100) in
    let wall, () = Sample.timed (fun () -> f !first last) in
    let next = Calib.slowdown () in
    let s = (!reading +. next) /. 2.0 in
    reading := next;
    Array.fill slowdown !first (last - !first) s;
    busy := !busy +. (wall /. s);
    first := last
  done;
  (slowdown, !busy)

(* the same requests in one go, uncorrected: no kernel runs in between *)
let whole n f =
  f 0 n;
  (Array.make n 1.0, 0.0)

(* The stream once against daemon [d], closed loop, one client,
   [segmented].  [canonical] holds the first ok response per program;
   every later response must be byte-equal to it.  The daemon is stopped
   at the end. *)
let serve_round tally ~canonical setup d =
  let n = Array.length setup.stream in
  let latencies = Array.make n 0.0 in
  let request i =
    let prog = setup.stream.(i) in
    tally.attempted <- tally.attempted + 1;
    let r0 = Sample.now () in
    let reply = Serve.request_once ~socket:d.socket setup.payloads.(prog) in
    latencies.(i) <- Sample.now () -. r0;
    match (reply, canonical.(prog)) with
    | Ok text, Some c -> if not (String.equal text c) then tally.failed <- tally.failed + 1
    | Ok text, None -> canonical.(prog) <- Some text
    | Error msg, _ ->
        log "request %d: %s" i msg;
        tally.failed <- tally.failed + 1
  in
  let wall, (slowdown, _) =
    Sample.timed (fun () ->
        segmented n (fun first last -> for i = first to last - 1 do request i done))
  in
  let corrected = Array.map2 ( /. ) latencies slowdown in
  let peak_mb = Sample.peak_rss_mb ~pid:(string_of_int d.pid) () in
  let counts =
    Result.to_option (Serve.request_once ~socket:d.socket {|{"op": "stats"}|})
    |> Fun.flip Option.bind cache_counts
  in
  if not (stop_daemon d) then begin
    log "daemon did not drain with exit 130";
    tally.failed <- tally.failed + 1
  end;
  { latencies; corrected; wall; peak_mb; counts }

let scheduled_cycles response =
  match Json.of_string response with
  | Error _ -> None
  | Ok json ->
      Option.bind (Json.member "report" json) (fun report ->
          Result.to_option (Json.get_int ~path:[] "scheduled_cycles" report))

(* the per-block (order, cycles) of an ok schedule response *)
let decode_results response =
  let int = function Json.Int i -> i | _ -> -1 in
  let block r =
    ( (match Json.member "order" r with
      | Some (Json.List ids) -> Array.of_list (List.map int ids)
      | _ -> [||]),
      Option.fold ~none:(-1) ~some:int (Json.member "cycles" r) )
  in
  match Json.of_string response with
  | Ok json -> (
      match (Json.member "status" json, Json.member "results" json) with
      | Some (Json.String "ok"), Some (Json.List results) -> Some (List.map block results)
      | _ -> None)
  | Error _ -> None

(* a canonical response decodes to one schedule per block of its program,
   and every schedule passes the interpreter check *)
let response_ok ~seed (p : Corpus.program) response =
  let blocks = Cfg_builder.partition (Parser.parse_program p.Corpus.text) in
  match decode_results response with
  | Some results when List.length results = List.length blocks ->
      Replay.mismatches ~seed blocks (List.map fst results) = 0
  | _ -> false

(* the stream in process, on a fresh Serve.create like the daemon's, run
   by [segments] ([segmented] or [whole]): per request its seconds (when
   [timed]; host-corrected), whether the cache hit and the response; the
   final cache stats; the corrected seconds of the whole stream *)
let in_process ~segments setup ~timed =
  let t = Serve.create ~domains:1 ~max_entries:serve_cache_entries () in
  Fun.protect ~finally:(fun () -> Serve.destroy t) @@ fun () ->
  let n = Array.length setup.stream in
  let per_request = Array.make n (0.0, false, "") in
  let handle i =
    let payload = setup.payloads.(setup.stream.(i)) in
    per_request.(i) <-
      (if timed then begin
         let hits = (Cache.stats (Serve.cache t)).Cache.hits in
         let dt, response = Sample.timed (fun () -> Serve.handle_text t payload) in
         (dt, (Cache.stats (Serve.cache t)).Cache.hits > hits, response)
       end
       else (0.0, false, Serve.handle_text t payload))
  in
  let slowdown, busy =
    segments n (fun first last -> for i = first to last - 1 do handle i done)
  in
  ( Array.mapi (fun i (dt, hit, r) -> (dt /. slowdown.(i), hit, r)) per_request,
    Cache.stats (Serve.cache t),
    busy )

let run_serve ~seed ~seconds ~trace ~schedtool ~tmp =
  let setup_s, (setup, daemon) =
    setup_median ~n:setups
      ~discard:(fun (_, d) -> ignore (stop_daemon d))
      (fun () ->
        let setup = serve_corpus ~seed in
        (setup, start_daemon ~schedtool ~tmp))
  in
  let tally = { attempted = 0; failed = 0 } in
  let canonical = Array.make (Array.length setup.programs) None in
  (* rounds of the same stream, each on a fresh daemon, until [seconds]
     of round time are measured; every round's cache counts are
     identical, so they are exact for the seed *)
  let rounds = ref [ serve_round tally ~canonical setup daemon ] in
  while sum (List.map (fun r -> r.wall) !rounds) < seconds do
    rounds := serve_round tally ~canonical setup (start_daemon ~schedtool ~tmp) :: !rounds
  done;
  let rounds = List.rev !rounds in
  (* output checks: canonical responses decode and replay *)
  let bad =
    Array.mapi
      (fun i c ->
        match c with
        | None -> false
        | Some text -> not (response_ok ~seed setup.programs.(i) text))
      canonical
  in
  Array.iter
    (fun prog -> if bad.(prog) then tally.failed <- tally.failed + List.length rounds)
    setup.stream;
  let insns =
    Array.fold_left (fun n prog -> n + setup.programs.(prog).Corpus.insns) 0 setup.stream
  in
  let sched_cycles =
    Array.fold_left
      (fun n prog ->
        match Option.bind canonical.(prog) scheduled_cycles with
        | Some c -> n + c
        | None -> n)
      0 setup.stream
  in
  (* the in-process replay: daemon == in-process, byte for byte, and the
     daemon's cache counts are the in-process LRU's *)
  let check_in_process (per_request, (stats : Cache.stats), _) =
    Array.iteri
      (fun i (_, _, response) ->
        if Some response <> canonical.(setup.stream.(i)) then
          tally.failed <- tally.failed + 1)
      per_request;
    List.iter
      (fun r ->
        if r.counts <> Some (stats.Cache.hits, stats.Cache.misses, stats.Cache.evictions)
        then begin
          log "daemon cache counts differ from the in-process replay";
          tally.failed <- tally.failed + 1
        end)
      rounds
  in
  let client_us =
    List.concat_map (fun r -> Array.to_list (Array.map (fun s -> s *. 1e6) r.corrected)) rounds
  in
  let busy r = Array.fold_left ( +. ) 0.0 r.corrected in
  let n_req = float_of_int (Array.length setup.stream) in
  let n_rounds = List.length rounds in
  log "set-up %.3fs; %d rounds of %d requests" setup_s (List.length rounds)
    (Array.length setup.stream);
  if not trace then begin
    let w0 = Sample.process_minor_words () in
    let replay = in_process ~segments:whole setup ~timed:false in
    let words = Sample.process_minor_words () -. w0 in
    check_in_process replay;
    let per_round f = Sample.median (List.map f rounds) in
    { attempted = tally.attempted;
      failed = tally.failed;
      metrics =
        [ m "setup_s" setup_s "s" setups;
          m "insns_per_s" (per_round (fun r -> float_of_int insns /. busy r)) "insn/s" n_rounds;
          m "minor_words_per_insn" (words /. float_of_int insns) "words/insn" 1;
          m "peak_rss_mb" (per_round (fun r -> r.peak_mb)) "MB" n_rounds;
          m "sched_cycles" (float_of_int sched_cycles) "cycles" 1;
          m "req_us_p50" (Sample.median client_us) "us" (List.length client_us);
          m "req_us_p90" (Sample.percentile 0.90 client_us) "us" (List.length client_us);
          m "req_per_s" (per_round (fun r -> n_req /. busy r)) "1/s" n_rounds ] }
  end
  else begin
    (* the daemon rounds, the in-process replays and the traced miss path
       run at different times, so their figures are host-corrected to be
       compared; what is left between two replays is still ~15% *)
    let replay ~timed = in_process ~segments:segmented setup ~timed in
    let ((_, _, untimed_busy) as untimed) = replay ~timed:false in
    check_in_process untimed;
    let ((per_request, stats, timed_busy) as timed) = replay ~timed:true in
    check_in_process timed;
    let hit i = let _, h, _ = per_request.(i) in h in
    let us_where pred =
      List.filter_map Fun.id
        (Array.to_list
           (Array.map
              (fun (dt, h, _) -> if pred h then Some (dt *. 1e6) else None)
              per_request))
    in
    let hit_p50 = Sample.median (us_where Fun.id) in
    let client_hit_us =
      List.concat_map
        (fun r ->
          List.filter_map Fun.id
            (Array.to_list
               (Array.mapi (fun i s -> if hit i then Some (s *. 1e6) else None) r.corrected)))
        rounds
    in
    let handled = Array.fold_left (fun s (dt, _, _) -> s +. dt) 0.0 per_request in
    let client = Sample.median (List.map busy rounds) in
    let lookups = stats.Cache.hits + stats.Cache.misses in
    (* the miss path one layer at a time: each request the replay missed,
       through the calls Serve makes on a miss (its configuration is
       Batch.section6's), as one task on a pool worker like the daemon's.
       It must reproduce the responses' orders and cycles. *)
    let missed = List.filter (fun i -> not (hit i)) (List.init (Array.length per_request) Fun.id) in
    let program i = setup.programs.(setup.stream.(i)) in
    let t = L.create () in
    let f_traced, traced =
      let pool = Pool.create ~domains:1 () in
      Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
      Calib.bracketed @@ fun () ->
      List.hd
        (Pool.map_on pool
           (fun () ->
             List.map
               (fun i ->
                 try Some (L.section6_program t Batch.section6 (program i).Corpus.text)
                 with e ->
                   log "traced miss %d: %s" i (Printexc.to_string e);
                   None)
               missed)
           [ () ])
    in
    List.iter2
      (fun i outcomes ->
        let expected = Option.bind canonical.(setup.stream.(i)) decode_results in
        let got =
          Option.map (List.map (fun (o : L.outcome) -> (o.L.order, o.L.cycles))) outcomes
        in
        if got = None || got <> expected then tally.failed <- tally.failed + 1)
      missed traced;
    let miss_insns = List.fold_left (fun n i -> n + (program i).Corpus.insns) 0 missed in
    let miss_handled =
      List.fold_left (fun s i -> let dt, _, _ = per_request.(i) in s +. dt) 0.0 missed
    in
    { attempted = tally.attempted;
      failed = tally.failed;
      metrics =
        per_layer ~samples:(Array.length per_request)
          (layer_metrics ~slowdown:f_traced [ t ] ~insns:miss_insns
          @ [ ("driver.unattributed_s", miss_handled -. (L.attributed t /. f_traced), "s");
              ("serve.hit_us_p50", hit_p50, "us");
              ("serve.miss_us_p50", Sample.median (us_where not), "us");
              ("serve.wire_us_p50", Sample.median client_hit_us -. hit_p50, "us");
              ( "cache.hit_ratio",
                float_of_int stats.Cache.hits /. float_of_int (max 1 lookups),
                "ratio" );
              ("cache.evictions", float_of_int stats.Cache.evictions, "count");
              ("trace.attributed_share", handled /. client, "ratio");
              ( "trace.overhead_pct",
                100.0 *. ((timed_busy /. untimed_busy) -. 1.0),
                "%" ) ]) }
  end

(* ------------------------------------------------------------------ *)

let workloads = [ "table3_small"; "fpppp_giant"; "table2_window"; "serve_zipf" ]

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 in
  let trace = ref 0 and schedtool = ref "" and tmp = ref ".perfbench_tmp" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N workload seed (default 0)");
      ("--seconds", Arg.Set_float seconds, "S measured seconds (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--schedtool", Arg.Set_string schedtool, "PATH the schedtool binary (serve_zipf)");
      ("--tmp", Arg.Set_string tmp, "DIR scratch directory for the daemon socket") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1 --schedtool PATH";
  let seed = !seed and seconds = !seconds and trace = !trace = 1 in
  let result =
    match batch_calls ~seed !workload with
    | Some make -> run_batch ~seed ~seconds ~trace make
    | None when !workload = "serve_zipf" ->
        if !schedtool = "" then (prerr_endline "serve_zipf needs --schedtool"; exit 2);
        (try Sys.mkdir !tmp 0o755 with Sys_error _ -> ());
        run_serve ~seed ~seconds ~trace ~schedtool:!schedtool ~tmp:!tmp
    | None ->
        Printf.eprintf "unknown workload %S (one of %s)\n" !workload
          (String.concat ", " workloads);
        exit 2
  in
  print_result result;
  if result.failed > 0 then exit 1
