(** Decision provenance for the scheduling engine.

    The paper's contribution is the heuristic layer — Table 1's 26
    heuristics combined by Table 2's ranked orderings — yet a pipeline
    run normally reports only the resulting schedule.  This module makes
    the {e decisions} observable, at two granularities:

    - {e decision traces}: one record per scheduling step, carrying the
      ready candidates, the winnowing trail (which heuristic was
      consulted, its best value, who survived) and the chosen node —
      serialized as JSONL with a total typed reader
      ({!decision_to_json} / {!decisions_of_jsonl});
    - {e decisiveness statistics}: a process-wide registry aggregating,
      per engine configuration ("strategy signature") and per heuristic
      rank, how often the rank was consulted, how many candidates it
      eliminated, and how often it alone settled the choice — plus how
      often the program-order tie-break fired, how many decisions were
      forced (a single ready candidate) and how many were overruled by
      priority-weight overflow.

    Like every observability layer in this tree the registry is
    atomics-gated off by default — a disabled registry costs the engine
    one atomic read per block, schedules and reports are byte-identical —
    and sharded into per-domain cells on the hot path, merged by
    {!snapshot} once the pool has quiesced.

    This module is generic over the heuristic kit: heuristics are
    identified by their display strings, so [ds_obs] stays at the bottom
    of the dependency tree.  [Ds_sched.Engine] is the producer: it
    records the shape of each decision its pick has already made. *)

(** {1 Enablement} *)

val enable : unit -> unit
val disable : unit -> unit
val enabled : unit -> bool

(** {1 Decision traces}

    Schema in docs/FORMAT.md ("decision trace"). *)

(** One consulted rank: the heuristic's display name, the best signed
    value among the candidates it saw, and the surviving node ids. *)
type step = { heuristic : string; best : int; survivors : int list }

(** One scheduling step.  [steps] is the winnowing trail in rank order
    (empty when the decision was forced by a single ready candidate);
    [tie_break] reports that the trail left several survivors and the
    program-order fallback chose. *)
type decision = {
  block : int;                  (** basic-block id *)
  strategy : string;            (** engine-config signature *)
  time : int;                   (** issue cycle within the block *)
  candidates : int list;        (** ready set, newest available first *)
  steps : step list;
  chosen : int;
  tie_break : bool;
}

val decision_to_json : decision -> Json.t

(** Total over arbitrary JSON; a typed error names the offending
    field. *)
val decision_of_json :
  ?path:string list -> Json.t -> (decision, Json.error) result

(** One JSON object per line, in order. *)
val decisions_to_jsonl : decision list -> string

(** Strict line-by-line reader; the error carries the 1-based line
    number.  Blank lines are skipped. *)
val decisions_of_jsonl : string -> (decision list, string) result

(** {1 Decisiveness statistics} *)

type rank_stat = {
  rank : int;                   (** 1-based position in the key order *)
  heuristic : string;
  consulted : int;              (** decisions whose trail reached it *)
  decided : int;                (** it left exactly one survivor *)
  eliminated : int;             (** candidates it removed, summed *)
}

type strategy_stat = {
  signature : string;
  keys : string list;           (** rank order, display names *)
  decisions : int;              (** total, including forced ones *)
  forced : int;                 (** single ready candidate, no consult *)
  tie_breaks : int;             (** program-order fallback fired *)
  overruled : int;              (** priority weights beat the rank order *)
  ranks : rank_stat list;       (** one per key, rank order *)
}

type stats = strategy_stat list

(** {2 Recording}

    A scheduling loop resolves its strategy's accumulator once with
    [cell] (the calling domain's, created on first use) and records each
    decision's shape with [record], with no hashing and no gating: the
    caller checks {!enabled} itself, once.  A cell must only be used on
    the domain that created it.

    [record] takes [candidates], the ready-set size before any rank, and
    [survivor_counts], the surviving-candidate count after each consulted
    rank (a prefix of the key order).  Forced decisions pass
    [survivor_counts = []] and [forced:true]. *)

type cell

val cell : signature:string -> keys:string list -> cell

val record :
  cell ->
  candidates:int ->
  survivor_counts:int list ->
  forced:bool ->
  tie_break:bool ->
  overruled:bool ->
  unit

(** Merged view over every domain's cells, sorted by signature.
    Exact once recording domains have quiesced (pool joined). *)
val snapshot : unit -> stats

(** Drop all recorded statistics (the enabled state is unchanged). *)
val reset : unit -> unit

val equal : stats -> stats -> bool

(** Keys a strategy ranked but no decision ever consulted — dead weight
    in the rank order (or proof the earlier ranks always settle it). *)
val never_consulted : strategy_stat -> string list

(** JSON round trip (schema in docs/FORMAT.md, "decisiveness"). *)
val to_json : stats -> Json.t

val of_json : ?path:string list -> Json.t -> (stats, Json.error) result
