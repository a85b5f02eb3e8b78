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
    - {e decisiveness statistics}: a fold over one strategy's decision
      records ({!decisiveness}) counting, per heuristic rank, how often
      the rank was consulted, how many candidates it eliminated, and how
      often it alone settled the choice — plus how often the
      program-order tie-break fired, how many decisions were forced (a
      single ready candidate) and how many were overruled by
      priority-weight overflow.

    Every statistic is a pure function of the decision records, so a
    decision trace written as JSONL and read back folds to the same
    statistics as the run that wrote it.

    This module is generic over the heuristic kit: heuristics are
    identified by their display strings, so [ds_obs] stays at the bottom
    of the dependency tree.  [Ds_sched.Engine.run_traced] produces the
    records; [schedtool explain] converts them. *)

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

(** Strict line-by-line reader ({!Json.of_jsonl}): the error's path
    starts with the 1-based physical line, ["line N"].  Blank lines are
    skipped but counted. *)
val decisions_of_jsonl : string -> (decision list, Json.error) result

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

(** [decisiveness ~signature ~keys decisions] counts one strategy's
    decisions against its rank order [keys] (display names), whatever
    their [strategy] field says:

    - a decision with exactly one candidate is {e forced}: no rank is
      consulted;
    - otherwise it is {e overruled} when [chosen] is not among the last
      step's survivors (never, with no steps), and its steps walk the
      ranks in order: each of the first [List.length keys] steps
      consults its rank and eliminates the candidates it removed from
      the previous count (the ready set's size before the first); the
      last step, if it is among those, {e decided} the pick when it
      left one survivor and the decision was neither a tie-break nor
      overruled.

    [ranks] has one entry per key, in rank order, consulted or not. *)
val decisiveness :
  signature:string -> keys:string list -> decision list -> strategy_stat

val equal : stats -> stats -> bool

(** Keys a strategy ranked but no decision ever consulted — dead weight
    in the rank order (or proof the earlier ranks always settle it). *)
val never_consulted : strategy_stat -> string list

(** JSON round trip (schema in docs/FORMAT.md, "decisiveness"). *)
val to_json : stats -> Json.t

val of_json : ?path:string list -> Json.t -> (stats, Json.error) result
