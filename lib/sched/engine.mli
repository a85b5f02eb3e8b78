(** Generic list-scheduling engine (paper §1): forward and backward
    passes; heuristics combined by lexicographic *winnowing* or a
    rank-weighted *priority function* (Table 2's two styles); ties fall
    back to original program order. *)

open Ds_heur

type mode = Winnowing | Priority_fn

type key = { heuristic : Heuristic.t; sense : Heuristic.sense }

(** [key ?sense h] defaults the sense to [Heuristic.default_sense h]. *)
val key : ?sense:Heuristic.sense -> Heuristic.t -> key

type config = {
  direction : Dyn_state.direction;
  mode : mode;
  keys : key list;   (* rank order *)
}

(** Choose the best candidate under the config (exposed for schedulers
    built on top of the engine, e.g. register-limited scheduling) from a
    non-empty list, by the same choice as {!run}'s winnowing or weighted
    sum.  A single-candidate list returns it without consulting any
    heuristic.  It records nothing: a decision record comes only from
    {!run_traced}. *)
val pick : config -> annot:Annot.t -> st:Dyn_state.t -> int list -> int

(** Stable identity of a config in decision records and decisiveness
    statistics ([Ds_obs.Explain]): direction, mode and the ranked key
    labels (see {!key_labels}). *)
val signature : config -> string

(** Rank-ordered display labels, e.g. ["max path length to a leaf"]. *)
val key_labels : config -> string list

(** Run the scheduling pass; returns node ids in the new program order.
    [seed] can prime the state with inherited cross-block latencies.

    The priority pick: at block start the engine computes one priority
    per node from the config's longest prefix of static keys
    ({!Ds_heur.Evaluate.is_static}) whose per-block value ranges fit
    together in one int, packed rank-major; a priority-fn config whose
    keys are all static gets its weighted sum instead.  A pick is then
    one pass over the available list that skips the unreleased nodes
    and keeps those tied for the top priority; the keys after the
    prefix winnow that front as {!pick} would, and program order breaks
    the last tie.  The chosen node is always the one the whole-list
    winnowing or weighted sum picks.  When the leading key is dynamic,
    every pick winnows the whole ready list.

    {!run_traced}'s recorder only observes: it sees the node already
    chosen and the same ready candidates, rebuilds the trail beside it,
    and never changes a choice, so the order and the [heur_dynamic]
    span's [picks], [candidates] and [stall_cycles] are the same traced
    or not.  A bare run keeps no observer state at all.

    Allocation: the result is the only array a run allocates for the
    block, and a bare winnowing run under static keys allocates nothing
    else.  Its work arrays (the available list and its slots, the top-priority
    front, the winnowing values, the static priorities) and the
    {!Ds_heur.Dyn_state} record it schedules with live in a scratch
    owned by the calling domain, grown to the largest block the domain
    has scheduled and refilled for each block.  The scratch is marked in
    use for the length of a run and released however the run ends, a
    raise included; releasing it drops its reference to the block's
    DAG.  A run nested on the same domain (a [seed], or a
    latency-model function the state calls at each issue, that runs the
    engine again) finds it in use and works in fresh arrays, so both runs
    give the orders they give alone.  The state [seed] receives is the
    run's own and is valid only until the run returns. *)
val run :
  ?seed:(Dyn_state.t -> unit) -> config -> annot:Annot.t -> Ds_dag.Dag.t ->
  int array

(** One scheduling decision: the ready candidates at [time] (newest
    available first), the winnowing trail (heuristic applied, best
    signed value, survivors in candidate order),
    the chosen node, and whether the program-order tie-break made the
    final call.  A forced decision (single ready candidate) has an empty
    trail.  Priority-fn configs report a restricted-narrowing trail:
    each rank keeps the best of the previous rank's survivors, which
    matches the weighted sum except when a low rank's value magnitude
    overflows the 10× weight separation ([chosen] is always the true
    weighted-sum winner). *)
type decision = {
  time : int;
  candidates : int list;
  trail : (Heuristic.t * int * int list) list;
  chosen : int;
  tie_break : bool;
}

(** Like {!run}, also returning the per-issue decision trace. *)
val run_traced :
  ?seed:(Dyn_state.t -> unit) -> config -> annot:Annot.t -> Ds_dag.Dag.t ->
  int array * decision list

(** Convenience: compute all static annotations here, then {!run}. *)
val schedule : config -> Ds_dag.Dag.t -> int array
