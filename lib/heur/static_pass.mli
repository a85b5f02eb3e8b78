(** The intermediate heuristic calculation step (paper §4): computes every
    static annotation left undetermined after DAG construction, by a
    forward walk (EST, max path/delay from root) and a backward walk (max
    path/delay to leaf, LST, slack, descendant measures) — the latter via
    either a reverse list walk or level lists (conclusion 4). *)

type traversal = Reverse_walk | Level_lists

(** Which optional (costly) annotation groups to compute. *)
type requirements = { descendants : bool; registers : bool }

val all_requirements : requirements

(** The requirements implied by a set of heuristics. *)
val requirements_of : Heuristic.t list -> requirements

(** Compute the static annotations: both walks, every column.  [live_out]
    feeds the register-usage heuristics (default: every register
    escapes); [requirements] trims the costly groups (default:
    everything). *)
val compute :
  ?traversal:traversal -> ?live_out:(Ds_isa.Reg.t -> bool) ->
  ?requirements:requirements -> Ds_dag.Dag.t -> Annot.t

(** Compute only what the given heuristics need — what a scheduler's
    intermediate pass actually runs.  The columns it fills hold
    {!compute}'s values; the others stay zero:
    - [exec_time], always;
    - the forward walk's [max_path_from_root], [max_delay_from_root] and
      [est], when a heuristic's pass is [F] or [FB];
    - the backward walk's [max_path_to_leaf], [max_delay_to_leaf] and
      [lst], when a pass is [B] or [FB] (the descendant measures are
      Table-1 [B] too, so they also run it);
    - [slack], when both walks run;
    - the descendant and register groups, as {!requirements_of} says.

    [critical_path_length] is exact whenever a walk runs (the backward
    walk's largest [max_delay_to_leaf] equals the forward walk's largest
    [est + exec_time]) and 0 when neither does. *)
val compute_for :
  ?traversal:traversal -> ?live_out:(Ds_isa.Reg.t -> bool) ->
  Heuristic.t list -> Ds_dag.Dag.t -> Annot.t

(** Only the backward walk: [exec_time], [max_path_to_leaf],
    [max_delay_to_leaf], [lst] and [critical_path_length] (used when
    timing the traversal strategies in isolation, §4). *)
val backward_only : ?traversal:traversal -> Ds_dag.Dag.t -> Annot.t
