(** The list scheduler's bare pick as it was before the static priority:
    every pick gathers the released candidates into an array and winnows
    them key by key through [Evaluate.value] (or sums a priority function
    over them).  With a recorder, every pick instead chooses by the
    list-based trail ([traced_pick]: [List.filter] per key, or a priority
    function's restricted narrowing beside its weighted sum) over the
    candidates in list order, newest available first.  Kept verbatim as
    the yardstick for the engine differential tests.  Not for pipeline
    use. *)

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

(** One decision as the list-based trail saw it: [overruled] marks a
    priority-fn decision whose weighted-sum winner is not among the
    restricted narrowing's final survivors. *)
type traced = { decision : Engine.decision; overruled : bool }

(** {!run} with a recorder: every pick's decision, in issue order. *)
val run_traced :
  ?seed:(Dyn_state.t -> unit) -> Engine.config -> annot:Annot.t -> Dag.t ->
  int array * traced list
