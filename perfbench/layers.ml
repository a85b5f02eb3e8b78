(* Per-layer attribution from outside the library.  The traced run calls
   each layer's public function itself, in place of [Batch.run_on] and
   [Published.run], and charges the wall time and minor words of every
   call to the layer the function belongs to.  It runs on the calling
   domain, so [Gc.minor_words] sees every word the call allocates.

   The per-block outcome is what the differential compares: the traced
   run must reproduce the untraced run's orders, fingerprints and
   cycles exactly. *)

open Dagsched

type outcome = {
  order : int array;
  fingerprint : int64;   (* 0 where the untraced path computes none *)
  arcs : int;
  original_cycles : int; (* 0 where the untraced path scores only [cycles] *)
  cycles : int;
  stalls : int;          (* 0 likewise *)
  verified : bool;
}

let of_batch (r : Batch.result) =
  { order = r.Batch.order; fingerprint = r.Batch.fingerprint;
    arcs = r.Batch.dag_arcs; original_cycles = r.Batch.original_cycles;
    cycles = r.Batch.cycles; stalls = r.Batch.stalls; verified = true }

let same_outcome a b =
  a.order = b.order && Int64.equal a.fingerprint b.fingerprint
  && a.arcs = b.arcs && a.original_cycles = b.original_cycles
  && a.cycles = b.cycles && a.stalls = b.stalls && a.verified = b.verified

(* one layer's totals: seconds and minor words *)
type acc = { mutable s : float; mutable words : float }

type t = {
  parse : acc;
  partition : acc;
  build : (Builder.algorithm * acc) list;
  fingerprint : acc;
  static : acc;
  engine : acc;
  fixup : acc;
  verify : acc;
  simulate : acc;
  mutable arcs : int;
}

let acc () = { s = 0.0; words = 0.0 }

let create () =
  { parse = acc (); partition = acc ();
    build = List.map (fun a -> (a, acc ())) Builder.all;
    fingerprint = acc (); static = acc (); engine = acc (); fixup = acc ();
    verify = acc (); simulate = acc (); arcs = 0 }

let charge a f =
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  a.s <- a.s +. (Unix.gettimeofday () -. t0);
  a.words <- a.words +. (Gc.minor_words () -. w0);
  r

let builder t alg = List.assq alg t.build

let layers t =
  [ t.parse; t.partition; t.fingerprint; t.static; t.engine; t.fixup;
    t.verify; t.simulate ]
  @ List.map snd t.build

(* seconds charged to any layer *)
let attributed t = List.fold_left (fun s a -> s +. a.s) 0.0 (layers t)

let build_words t = List.fold_left (fun s (_, a) -> s +. a.words) 0.0 t.build

(* Batch.run_on's per-block pipeline, call for call (lib/driver/batch.ml
   run_block): build, static pass, engine, verify, fingerprint, then the
   three simulations that score the block *)
let section6_block t (config : Batch.pipeline_config) block =
  let heuristics =
    List.map (fun k -> k.Engine.heuristic) config.Batch.engine.Engine.keys
  in
  let dag =
    charge (builder t config.Batch.algorithm) (fun () ->
        Builder.build config.Batch.algorithm config.Batch.opts block)
  in
  let annot = charge t.static (fun () -> Static_pass.compute_for heuristics dag) in
  let order = charge t.engine (fun () -> Engine.run config.Batch.engine ~annot dag) in
  let sched = Schedule.make dag order in
  let verified = charge t.verify (fun () -> Result.is_ok (Verify.check sched)) in
  let fingerprint = charge t.fingerprint (fun () -> Dag.fingerprint dag) in
  let original_cycles, cycles, stalls =
    charge t.simulate (fun () ->
        ( Schedule.original_cycles sched,
          Schedule.cycles sched,
          Schedule.stalls sched ))
  in
  let arcs = Dag.n_arcs dag in
  t.arcs <- t.arcs + arcs;
  { order = sched.Schedule.order; fingerprint; arcs; original_cycles;
    cycles; stalls; verified }

(* text to schedules, as the batch workloads run it *)
let section6_program t config text =
  let insns = charge t.parse (fun () -> Parser.parse_program text) in
  let blocks = charge t.partition (fun () -> Cfg_builder.partition insns) in
  List.map (section6_block t config) blocks

(* Published.run, call for call, then the verify and the one simulation
   the windowed workload adds per schedule *)
let published_block t ~opts (spec : Published.spec) block =
  let alg = Published.builder spec in
  let dag = charge (builder t alg) (fun () -> Builder.build alg opts block) in
  let annot =
    charge t.static (fun () ->
        Static_pass.compute_for (Published.heuristics_of spec) dag)
  in
  let order =
    charge t.engine (fun () ->
        Engine.run (Published.engine_config spec) ~annot dag)
  in
  let sched = Schedule.make dag order in
  let sched =
    if spec.Published.postpass_fixup then charge t.fixup (fun () -> Fixup.run sched)
    else sched
  in
  let verified = charge t.verify (fun () -> Result.is_ok (Verify.check sched)) in
  let cycles = charge t.simulate (fun () -> Schedule.cycles sched) in
  let arcs = Dag.n_arcs dag in
  t.arcs <- t.arcs + arcs;
  { order = sched.Schedule.order; fingerprint = 0L; arcs; original_cycles = 0;
    cycles; stalls = 0; verified }
