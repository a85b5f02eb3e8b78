(** Parallel batch-scheduling driver.

    Each basic block's pipeline — DAG construction, intermediate
    heuristic calculation, list scheduling, verification — is independent
    of every other block's, so a batch fans out across domains on a
    {!Ds_util.Pool} and still returns results in input order.  Running
    with [~domains:1] and [~domains:N] is guaranteed to produce identical
    schedules and statistics (the differential test layer in
    [test/test_driver.ml] pins this down); only the wall-clock fields
    differ. *)

(** One per-block pipeline: which builder, its options, and the
    scheduling-engine configuration.  [verify] re-checks every schedule
    against the DAG (cheap, and what the paper's drivers did). *)
type pipeline_config = {
  algorithm : Ds_dag.Builder.algorithm;
  opts : Ds_dag.Opts.t;
  engine : Ds_sched.Engine.config;
  verify : bool;
}

(** The paper's §6 measurement pipeline: table-building forward
    construction, symbolic memory disambiguation, a simple forward
    scheduling pass driven by max path to leaf / max delay to leaf / max
    delay to child, verification on. *)
val section6 : pipeline_config

(** Per-block outcome.  Everything except [time_s] is deterministic and
    identical across domain counts. *)
type result = {
  block_id : int;
  insns : int;
  dag_arcs : int;
  fingerprint : int64;          (* Ds_dag.Dag.fingerprint of the DAG —
                                   the serve cache's structural key *)
  order : int array;            (* node ids in scheduled order *)
  original_cycles : int;        (* simulated cycles, original order *)
  cycles : int;                 (* simulated cycles, scheduled order *)
  stalls : int;
  time_s : float;               (* this block's pipeline wall clock *)
}

(** The deterministic part of a result (drops [time_s]) — what the
    differential tests compare. *)
val strip_timing :
  result -> int * int * int * int64 * int array * int * int * int

(** Raised (on the calling domain) when [verify] finds an invalid
    schedule; carries the block id and the violation. *)
exception Invalid_schedule of int * string

(** [run ?domains ?chunk config blocks] schedules every block, fanning
    out over [domains] workers (default {!Ds_util.Pool.recommended}) in
    chunks of [chunk] blocks (default
    {!Ds_util.Pool.default_chunk}; values < 1 are clamped to 1).
    Results are in input order, and identical for every domain count
    and chunk size — only dispatch bookkeeping changes (the
    [queue_wait]/[task_run] spans are per chunk).  The differential
    test layer in [test/test_driver.ml] pins the chunk-size
    invariance. *)
val run :
  ?domains:int -> ?chunk:int -> pipeline_config -> Ds_cfg.Block.t list ->
  result list

(** [run_on ~pool config blocks] is {!run} on an existing pool, which
    stays usable afterwards — this is how the daemon ({!Serve}) reuses
    one set of worker domains across many requests. *)
val run_on :
  pool:Ds_util.Pool.t -> pipeline_config -> Ds_cfg.Block.t list ->
  result list

(** [run_here config blocks] is {!run} on the calling domain: no pool,
    no worker domain, no [queue_wait]/[task_run] spans.  Results (and
    any [Invalid_schedule]) are exactly {!run}'s — this is how a
    one-domain daemon ({!Serve}) schedules. *)
val run_here : pipeline_config -> Ds_cfg.Block.t list -> result list

(** Batch aggregate: totals plus per-block timing statistics. *)
type report = {
  domains : int;
  blocks : int;
  insns : int;
  arcs : int;
  original_cycles : int;
  scheduled_cycles : int;
  stalls : int;
  wall_s : float;               (* whole-batch wall clock *)
  block_s_mean : float;         (* mean per-block pipeline seconds *)
  block_s_max : float;
}

val report : domains:int -> wall_s:float -> result list -> report

(** {!run} plus the aggregate, timing the whole batch.  The worker pool
    is created (and torn down) {e outside} the timed region, so
    [wall_s] measures scheduling work, not domain spawn cost. *)
val run_with_report :
  ?domains:int -> pipeline_config -> Ds_cfg.Block.t list ->
  result list * report

(** Field-wise report equality with NaN-tolerant float comparison (two
    NaN fields are equal).  Use this — not structural [=], under which a
    report with any NaN field is unequal to itself — to validate a JSON
    round trip. *)
val report_equal : report -> report -> bool

(** JSON round trip for the report (the [schedtool batch --json]
    schema, documented in docs/FORMAT.md).
    The writer encodes non-finite float fields as [null]; the reader
    maps [null] float fields back to [nan], so the round trip is total
    up to {!report_equal}. *)
val report_to_json : report -> Ds_util.Stats.Json.t

(** The reader is total over arbitrary JSON values: malformed, truncated
    or wrong-schema input yields a typed {!Ds_util.Stats.Json.error}
    naming the offending field — no exception escapes. *)
val report_of_json :
  Ds_util.Stats.Json.t ->
  (report, Ds_util.Stats.Json.error) Stdlib.result
