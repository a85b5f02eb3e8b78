(** The intermediate heuristic calculation step (paper §4): computes every
    static annotation left undetermined after DAG construction, by a
    forward walk (EST, max path/delay from root) and a backward walk (max
    path/delay to leaf, LST, slack, descendant measures) — the latter via
    either a reverse list walk or level lists (conclusion 4). *)

type traversal = Reverse_walk | Level_lists

(** Compute the static annotations: both walks, every column.
    [live_out] feeds the register-usage heuristics (default: every
    register escapes). *)
val compute :
  ?traversal:traversal -> ?live_out:(Ds_isa.Reg.t -> bool) ->
  Ds_dag.Dag.t -> Annot.t

(** Compute only what the given heuristics need — what a scheduler's
    intermediate pass actually runs.  It allocates [exec_time], which the
    walks read, and the columns of the heuristics given, each holding
    {!compute}'s values; every other column is empty ([[||]]), and
    {!Evaluate.value} on it raises [Invalid_argument] naming the
    heuristic.  The work behind the columns:
    - the forward walk runs when a heuristic's pass is [F] or [FB], the
      backward walk when one is [B] or [FB] (the descendant measures are
      Table-1 [B] too, so they also run it);
    - the walks' delays go to an array of their own when no column
      asked for keeps them, since the critical path, [lst] and [slack]
      are derived from them;
    - the descendant group runs when [Num_descendants] or
      [Sum_exec_of_descendants] is given, the register group when
      [Registers_born], [Registers_killed] or [Liveness] is.

    [critical_path_length] is exact whenever a walk runs (the backward
    walk's largest [max_delay_to_leaf] equals the forward walk's largest
    [est + exec_time]) and 0 when neither does. *)
val compute_for :
  ?traversal:traversal -> ?live_out:(Ds_isa.Reg.t -> bool) ->
  Heuristic.t list -> Ds_dag.Dag.t -> Annot.t

(** Only the backward walk: [exec_time], [max_path_to_leaf],
    [max_delay_to_leaf], [lst] and [critical_path_length]; the other
    columns are empty (used when timing the traversal strategies in
    isolation, §4). *)
val backward_only : ?traversal:traversal -> Ds_dag.Dag.t -> Annot.t
