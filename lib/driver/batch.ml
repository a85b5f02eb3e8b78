(** Parallel batch-scheduling driver: fans the per-block pipeline (build
    DAG -> static heuristic pass -> list scheduling -> verify) out across
    domains and aggregates timings and schedule statistics.  See
    batch.mli for the contract. *)

open Ds_sched

type pipeline_config = {
  algorithm : Ds_dag.Builder.algorithm;
  opts : Ds_dag.Opts.t;
  engine : Engine.config;
  verify : bool;
}

let section6 =
  {
    algorithm = Ds_dag.Builder.Table_forward;
    opts =
      { Ds_dag.Opts.default with
        Ds_dag.Opts.strategy = Ds_dag.Disambiguate.Symbolic };
    engine =
      {
        Engine.direction = Ds_heur.Dyn_state.Forward;
        mode = Engine.Winnowing;
        keys =
          [ Engine.key Ds_heur.Heuristic.Max_path_to_leaf;
            Engine.key Ds_heur.Heuristic.Max_delay_to_leaf;
            Engine.key (Ds_heur.Heuristic.Delays_to_children Ds_heur.Heuristic.Max) ];
      };
    verify = true;
  }

type result = {
  block_id : int;
  insns : int;
  dag_arcs : int;
  fingerprint : int64;
  order : int array;
  original_cycles : int;
  cycles : int;
  stalls : int;
  time_s : float;
}

let strip_timing r =
  ( r.block_id, r.insns, r.dag_arcs, r.fingerprint, r.order,
    r.original_cycles, r.cycles, r.stalls )

exception Invalid_schedule of int * string

let heuristics_of config =
  List.map (fun k -> k.Engine.heuristic) config.engine.Engine.keys

(* live progress: when heartbeats are armed (--progress) each finished
   block ticks a process-wide counter that Log.heartbeat rate-limits
   into the log stream *)
let hb_done = Atomic.make 0
let hb_total = Atomic.make 0

let hb_start n =
  if Ds_obs.Log.heartbeat_enabled () then (
    Atomic.set hb_done 0;
    Atomic.set hb_total n)

let hb_tick () =
  if Ds_obs.Log.heartbeat_enabled () then
    let d = 1 + Atomic.fetch_and_add hb_done 1 in
    Ds_obs.Log.heartbeat ~phase:"block" ~done_:d ~total:(Atomic.get hb_total) ()

(* A pipeline span carrying the block id (and, on dag_build, the
   builder).  Only the traced path calls it: untraced, [run_block] calls
   each phase directly, so it builds neither span args nor a phase
   closure. *)
let span config id name f =
  let args =
    ("block", Ds_obs.Json.Int id)
    :: (if String.equal name "dag_build" then
          [ ( "builder",
              Ds_obs.Json.String (Ds_dag.Builder.to_string config.algorithm) )
          ]
        else [])
  in
  Ds_obs.Trace.with_span ~cat:"pipeline" ~args name f

let build_dag config block =
  let dag = Ds_dag.Builder.build config.algorithm config.opts block in
  Ds_obs.Trace.count "arcs" (Ds_dag.Dag.n_arcs dag);
  dag

let verify id sched =
  match Verify.check sched with
  | Ok () -> ()
  | Error v -> raise (Invalid_schedule (id, Verify.violation_to_string v))

(* One block, phase by phase (heur_dynamic is recorded inside
   Engine.run as an aggregate).  Traced, each phase runs in a span that
   charges it its time and minor words; untraced, the block allocates
   only its result: the DAG, the annotation columns, the order, the
   score, the fingerprint and the record.  [time_s] runs from the build
   through verification.  [heuristics] is [heuristics_of config],
   resolved once per map. *)
let run_block config heuristics block =
  let id = block.Ds_cfg.Block.id in
  let traced = Ds_obs.Trace.enabled () in
  let t0 = Ds_obs.Clock.now_ns () in
  let dag =
    if traced then span config id "dag_build" (fun () -> build_dag config block)
    else build_dag config block
  in
  let annot =
    if traced then
      span config id "heur_static" (fun () ->
          Ds_heur.Static_pass.compute_for heuristics dag)
    else Ds_heur.Static_pass.compute_for heuristics dag
  in
  let order =
    if traced then
      span config id "schedule" (fun () -> Engine.run config.engine ~annot dag)
    else Engine.run config.engine ~annot dag
  in
  let sched = Schedule.make dag order in
  if config.verify then begin
    if traced then span config id "verify" (fun () -> verify id sched)
    else verify id sched
  end;
  let time_s = float_of_int (Ds_obs.Clock.now_ns () - t0) *. 1e-9 in
  hb_tick ();
  (* the builder's decode of the block scores the original and the
     scheduled order *)
  let score =
    if traced then span config id "score" (fun () -> Schedule.score sched)
    else Schedule.score sched
  in
  let fingerprint =
    if traced then span config id "fingerprint" (fun () -> Ds_dag.Dag.fingerprint dag)
    else Ds_dag.Dag.fingerprint dag
  in
  { block_id = id;
    insns = Ds_cfg.Block.length block;
    dag_arcs = Ds_dag.Dag.n_arcs dag;
    fingerprint;
    order;
    original_cycles = score.Schedule.original_cycles;
    cycles = score.Schedule.cycles;
    stalls = score.Schedule.stalls;
    time_s }

let resolve_domains = function
  | Some d -> max 1 d
  | None -> Ds_util.Pool.recommended ()

let log_start config blocks =
  Ds_obs.Log.log Ds_obs.Log.Debug ~scope:"batch"
    ~fields:
      [ ("blocks", Ds_obs.Json.Int (List.length blocks));
        ( "builder",
          Ds_obs.Json.String (Ds_dag.Builder.to_string config.algorithm) ) ]
    "starting batch"

(* ~64-block chunks (Pool.default_chunk) cut dispatch bookkeeping —
   counter takes, queue_wait spans — by the chunk factor while leaving
   enough chunks for the workers to share; results and reports are
   chunk-size-invariant (differential-tested) *)
let run_on ~pool config blocks =
  log_start config blocks;
  hb_start (List.length blocks);
  Ds_util.Pool.map_on pool ~chunk:Ds_util.Pool.default_chunk
    (run_block config (heuristics_of config)) blocks

let run_here config blocks =
  log_start config blocks;
  hb_start (List.length blocks);
  List.map (run_block config (heuristics_of config)) blocks

let run ?domains ?(chunk = Ds_util.Pool.default_chunk) config blocks =
  let domains = resolve_domains domains in
  log_start config blocks;
  hb_start (List.length blocks);
  Ds_util.Pool.map ~domains ~chunk (run_block config (heuristics_of config)) blocks

type report = {
  domains : int;
  blocks : int;
  insns : int;
  arcs : int;
  original_cycles : int;
  scheduled_cycles : int;
  stalls : int;
  wall_s : float;
  block_s_mean : float;
  block_s_max : float;
}

let report ~domains ~wall_s results =
  let times = Ds_util.Stats.create () in
  let insns = ref 0 and arcs = ref 0 in
  let before = ref 0 and after = ref 0 and stalls = ref 0 in
  List.iter
    (fun r ->
      Ds_util.Stats.add times r.time_s;
      insns := !insns + r.insns;
      arcs := !arcs + r.dag_arcs;
      before := !before + r.original_cycles;
      after := !after + r.cycles;
      stalls := !stalls + r.stalls)
    results;
  { domains; blocks = List.length results; insns = !insns; arcs = !arcs;
    original_cycles = !before; scheduled_cycles = !after; stalls = !stalls;
    wall_s;
    block_s_mean = Ds_util.Stats.mean times;
    block_s_max = Ds_util.Stats.max_value times }

(* The pool lives outside the timed region: wall_s covers scheduling
   work only, not domain spawn/join, so --jobs comparisons are fair. *)
let run_with_report ?domains config blocks =
  let domains = resolve_domains domains in
  let pool = Ds_util.Pool.create ~domains () in
  Fun.protect
    ~finally:(fun () -> Ds_util.Pool.shutdown pool)
    (fun () ->
      let wall_s, results =
        Ds_util.Stats.time_runs ~runs:1 (fun () ->
            run_on ~pool config blocks)
      in
      (results, report ~domains ~wall_s results))

let report_equal a b =
  a.domains = b.domains && a.blocks = b.blocks && a.insns = b.insns
  && a.arcs = b.arcs
  && a.original_cycles = b.original_cycles
  && a.scheduled_cycles = b.scheduled_cycles
  && a.stalls = b.stalls
  && Float.equal a.wall_s b.wall_s
  && Float.equal a.block_s_mean b.block_s_mean
  && Float.equal a.block_s_max b.block_s_max

module Json = Ds_util.Stats.Json

let report_to_json r =
  Json.Obj
    [ ("domains", Json.Int r.domains); ("blocks", Json.Int r.blocks);
      ("insns", Json.Int r.insns); ("arcs", Json.Int r.arcs);
      ("original_cycles", Json.Int r.original_cycles);
      ("scheduled_cycles", Json.Int r.scheduled_cycles);
      ("stalls", Json.Int r.stalls); ("wall_s", Json.Float r.wall_s);
      ("block_s_mean", Json.Float r.block_s_mean);
      ("block_s_max", Json.Float r.block_s_max) ]

let report_of_json json =
  (* get_float maps null back to nan: the writer encodes non-finite
     floats as null, so the round trip stays total (compare with
     report_equal) *)
  let int_field k = Json.get_int ~path:[] k json in
  let float_field k = Json.get_float ~path:[] k json in
  let ( let* ) = Result.bind in
  let* domains = int_field "domains" in
  let* blocks = int_field "blocks" in
  let* insns = int_field "insns" in
  let* arcs = int_field "arcs" in
  let* original_cycles = int_field "original_cycles" in
  let* scheduled_cycles = int_field "scheduled_cycles" in
  let* stalls = int_field "stalls" in
  let* wall_s = float_field "wall_s" in
  let* block_s_mean = float_field "block_s_mean" in
  let* block_s_max = float_field "block_s_max" in
  Ok
    { domains; blocks; insns; arcs; original_cycles; scheduled_cycles;
      stalls; wall_s; block_s_mean; block_s_max }
