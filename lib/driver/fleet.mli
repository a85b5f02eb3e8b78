(** Multi-process fleet runner: fault-tolerant orchestration of shard
    workers as separate OS processes.

    {!Batch} scales one process across domains; this layer scales across
    {e processes}.  The corpus (a list of input files) is partitioned
    into per-worker {!manifest}s, each handed to a [schedtool worker]
    child via {!Unix.create_process_env}; every worker runs the ordinary
    batch pipeline over its files and prints a {!Batch.report} as JSON
    on stdout.  The orchestrator supervises the children:

    - a per-worker wall-clock {e timeout} (SIGKILL, then reap);
    - {e retries} with exponential backoff on nonzero exit, signal
      death, timeout, or malformed/truncated output;
    - {e graceful degradation}: a shard that exhausts its retry budget
      is reported in [failed_shards] rather than aborting the fleet —
      the aggregate covers the surviving shards.

    Process isolation is an accounting boundary, not a semantic one:
    every block still runs the identical per-block pipeline, so for a
    fault-free corpus the fleet aggregate's integer statistics equal the
    in-process [schedtool batch] aggregate over the same files for any
    worker count or retry budget.  [test/test_fleet.ml] pins this down
    differentially, and drives the crash-injection knob
    ([DAGSCHED_WORKER_FAIL], see {!maybe_sabotage}) to check that a
    faulty fleet converges to the no-fault aggregate once retries
    succeed. *)

(** {1 Shard manifests} *)

(** What one worker is asked to do: which input files, and the pipeline
    options (DAG builder, disambiguation strategy, latency model by
    name, domain count for the worker's own pool). *)
type manifest = {
  files : string list;
  algorithm : Ds_dag.Builder.algorithm;
  strategy : Ds_dag.Disambiguate.t;
  model : string;
  domains : int;
}

val manifest_to_json : manifest -> Ds_util.Stats.Json.t

(** Total over arbitrary JSON, like the report readers: malformed input
    yields a typed error, no exception escapes. *)
val manifest_of_json :
  ?path:string list ->
  Ds_util.Stats.Json.t ->
  (manifest, Ds_util.Stats.Json.error) Stdlib.result

(** Resolve a manifest's symbolic options into a batch pipeline config
    ({!Batch.section6} with the manifest's builder/strategy/model).
    [Error] on an unknown latency-model name. *)
val config_of_manifest : manifest -> (Batch.pipeline_config, string) result

(** [partition ~workers ~weight items] deals [items] across [workers]
    (clamped to >= 1) lists by greedy balancing: largest [weight] first,
    each item onto the currently lightest worker.  Every item lands in
    exactly one list, each list keeps input order, worker loads differ
    by at most the largest single weight, and the result is
    deterministic; workers beyond the item count get empty lists. *)
val partition : workers:int -> weight:('a -> int) -> 'a list -> 'a list array

(** [plan ~workers ... files] partitions the corpus files into [workers]
    manifests with {!partition}, file byte size as the weight.  An
    unreadable file weighs 0 and stays in the plan: its worker fails to
    read it, which flows into the ordinary failure/degradation path. *)
val plan :
  workers:int ->
  algorithm:Ds_dag.Builder.algorithm ->
  strategy:Ds_dag.Disambiguate.t ->
  model:string ->
  domains:int ->
  string list ->
  manifest list

(** {1 Supervision} *)

(** Why one worker attempt failed. *)
type failure =
  | Exited of int       (* nonzero exit code *)
  | Signaled of int     (* killed by a signal (other than our timeout) *)
  | Timed_out           (* exceeded the per-worker timeout; SIGKILLed *)
  | Bad_output of string  (* exit 0 but stdout was not a valid report *)

val failure_to_string : failure -> string

(** One supervised attempt, in attempt order.  [duration_s] is the
    spawn-to-settle time as seen by the orchestrator on the
    monotonic-leaning {!Ds_obs.Clock} (never negative, even across
    wall-clock steps); [backoff_s] is the retry delay {e scheduled}
    after this attempt by the exponential schedule — 0 for a success or
    for the final exhausted attempt — so it is deterministic for a given
    fault pattern; [outcome = None] means success. *)
type attempt = {
  duration_s : float;
  backoff_s : float;
  outcome : failure option;
}

(** Per-shard supervision record: every attempt's failure is kept (in
    attempt order), [report = None] marks a permanently failed shard.
    [attempt_log] has one structured entry per attempt (duration,
    scheduled backoff, outcome).  [wall_s] sums the shard's attempt
    durations as seen by the orchestrator (spawn to reap, including the
    killed attempts). *)
type worker_log = {
  shard : int;
  files : string list;
  attempts : int;
  failures : failure list;
  attempt_log : attempt list;
  wall_s : float;
  report : Batch.report option;
}

(** Live per-shard progress, derived from the worker heartbeats the
    orchestrator tails out of the shared log stream.  [state] is one of
    ["waiting"] (between attempts), ["running"], ["ok"], ["failed"];
    [done_blocks]/[total_blocks]/[phase]/[rss_kb] echo the shard's most
    recent heartbeat (zero/empty before the first one); [beat_age_s] is
    the time since that heartbeat (or since spawn) for a running shard;
    [stalled] flags a running shard whose [beat_age_s] exceeded
    [options.stall_s] — the early-warning signal that fires {e before}
    the timeout kill. *)
type progress = {
  shard : int;
  state : string;
  done_blocks : int;
  total_blocks : int;
  phase : string;
  rss_kb : int;
  beat_age_s : float;
  stalled : bool;
}

(** Supervision knobs.  [timeout_s] is per attempt; a failed attempt
    [k] (1-based) is retried after [backoff_s *. 2. ** float (k - 1)]
    until [retries] extra attempts are exhausted.  [poll_s] is the idle
    supervisor sleep.  [stall_s] is the heartbeat-silence threshold for
    {!progress.stalled}; [heartbeat_s] is the interval exported to the
    workers; [on_progress] (the [--progress] renderer) is invoked from
    the supervision loop whenever the fleet's visible state changes —
    a shard starts/finishes, a heartbeat advances, a stall begins. *)
type options = {
  timeout_s : float;
  retries : int;
  backoff_s : float;
  poll_s : float;
  stall_s : float;
  heartbeat_s : float;
  on_progress : (progress list -> unit) option;
}

(** 60 s timeout, 2 retries, 0.1 s initial backoff, 5 ms poll, 5 s
    stall threshold, 0.5 s heartbeat, no progress callback. *)
val default_options : options

(** A completed fleet run.  [corpus] is the input file list in its
    original order (not shard order), so the summary JSON is stable
    across worker counts; [aggregate] merges the surviving shards'
    reports ({!Batch.report_merge}) with the fleet's own wall clock. *)
type t = {
  workers : int;
  timeout_s : float;
  retries : int;
  corpus : string list;
  aggregate : Batch.report;
  logs : worker_log list;
}

(** [run ~worker ~corpus manifests] writes each manifest to a temp file,
    spawns [worker] (argv prefix, e.g. [[| "schedtool"; "worker" |]])
    with the manifest path appended, and supervises to completion as
    described above.  Workers inherit the environment plus
    [DAGSCHED_WORKER_SHARD] (shard index), [DAGSCHED_WORKER_ATTEMPT]
    (1-based attempt counter) and — when {!Ds_obs.Trace}/{!Ds_obs.Metrics}
    are enabled — [DAGSCHED_OBS], which makes each worker record its own
    spans/metrics and ship them home in an ["obs"] section of its report
    JSON; the orchestrator injects those spans (re-homed to fleet pid
    [shard + 1]) and absorbs the metrics, forming one fleet-wide
    timeline.  When tracing is enabled the orchestrator also records
    [spawn]/[attempt]/[merge] spans of its own.

    When {!Ds_obs.Log} has a sink — or [options.on_progress] is set, in
    which case a temp stream is created — workers are pointed at the
    shared JSONL stream ([DAGSCHED_LOG] append-mode, plus level and
    heartbeat interval), the supervisor logs every spawn / attempt /
    retry / timeout / permanent-failure decision into it (scope
    ["fleet"]), and the orchestrator tails worker heartbeats out of it
    to drive [on_progress] and stall detection.

    Temp files (manifests, output captures, a temp stream) are removed
    on every exit path: normal return, exception, and — via a SIGINT
    handler installed for the duration of the run that first SIGKILLs
    the live workers and then exits 130 — Ctrl-C. *)
val run :
  ?options:options -> worker:string array -> corpus:string list ->
  manifest list -> t

(** Surviving shards' reports, in shard order. *)
val per_shard : t -> Batch.report list

(** Indices of permanently failed shards (empty on a fully successful
    run). *)
val failed_shards : t -> int list

(** {1 JSON} *)

(** Field-wise equality, NaN-tolerant on embedded reports. *)
val equal : t -> t -> bool

(** The fleet report schema (docs/FORMAT.md): a
    [corpus]/[aggregate]/[per_shard] core plus [workers]/[timeout_s]/
    [retries]/[failed_shards] and a [fleet] list with one supervision
    entry per shard. *)
val to_json : t -> Ds_util.Stats.Json.t

(** Total over arbitrary JSON; round trips {!to_json} up to {!equal}. *)
val of_json :
  ?path:string list ->
  Ds_util.Stats.Json.t ->
  (t, Ds_util.Stats.Json.error) Stdlib.result

(** Total retries across the fleet: [sum (attempts - 1)]. *)
val retries_used : t -> int

(** Total backoff delay {e scheduled} by the exponential schedule,
    rounded to whole microseconds — deterministic for a given fault
    pattern and [--backoff], unlike a wall-clock measurement. *)
val backoff_total_s : t -> float

(** Timing-free summary (corpus in input order, aggregate integer
    fields, failed shards, plus the deterministic supervision
    aggregates {!retries_used}/{!backoff_total_s}): what
    [schedtool fleet] prints on stdout.  Byte-stable across
    [--workers]/[--retries] for a fault-free run, and byte-stable
    across [--workers] even with faults when the fault spec pins the
    failing shard. *)
val summary_to_json : t -> Ds_util.Stats.Json.t

(** {1 Crash injection (test knob)} *)

(** Exit code used by the [exit] sabotage mode (and by a sabotaged
    [hang] worker that somehow survives its kill): 7. *)
val sabotage_exit_code : int

(** Called by [schedtool worker] before doing any work.  Reads
    [DAGSCHED_WORKER_FAIL] = ["MODE:N"] or ["MODE:N:SHARD"]; when the
    current attempt ([DAGSCHED_WORKER_ATTEMPT]) is [<= N] — and, with
    the third field, only in shard [SHARD] — the worker sabotages
    itself: [exit] exits with {!sabotage_exit_code}, [truncate] prints a
    prefix of a report and exits 0, [hang] sleeps for an hour.  Unset,
    empty, or unparseable specs are ignored, as are unknown modes. *)
val maybe_sabotage : unit -> unit
