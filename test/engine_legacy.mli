(** The list scheduler's bare pick as it was before the static priority:
    every pick gathers the released candidates into an array and winnows
    them key by key through [Evaluate.value] (or sums a priority function
    over them).  Kept verbatim as the yardstick for the engine
    differential tests.  Not for pipeline use. *)

open Dagsched

(** What the engine's [heur_dynamic] span counts for one block. *)
type counts = {
  picks : int;         (** issues *)
  candidates : int;    (** released candidates summed over every pass *)
  stall_cycles : int;  (** cycles with no released candidate *)
}

(** Schedule one DAG: node ids in the new program order, and the counts. *)
val run :
  ?seed:(Dyn_state.t -> unit) -> Engine.config -> annot:Annot.t -> Dag.t ->
  int array * counts
