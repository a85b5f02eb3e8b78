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
    non-empty list.  A single-candidate list returns it without
    consulting any heuristic.
    When [Ds_obs.Explain] is enabled every call records the decision's
    shape (ranks consulted, eliminations, tie-breaks) into the
    decisiveness registry; disabled, that is one atomic read. *)
val pick : config -> annot:Annot.t -> st:Dyn_state.t -> int list -> int

(** Stable identity of a config in the decisiveness registry: direction,
    mode and the ranked key labels (see {!key_labels}). *)
val signature : config -> string

(** Rank-ordered display labels, e.g. ["max path length to a leaf"]. *)
val key_labels : config -> string list

(** Run the scheduling pass; returns node ids in the new program order.
    [seed] can prime the state with inherited cross-block latencies. *)
val run :
  ?seed:(Dyn_state.t -> unit) -> config -> annot:Annot.t -> Ds_dag.Dag.t ->
  int array

(** One scheduling decision: the ready candidates at [time], the
    winnowing trail (heuristic applied, best signed value, survivors),
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
