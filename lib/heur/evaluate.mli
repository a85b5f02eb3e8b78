(** Uniform heuristic evaluation: maps any heuristic to its value for a
    candidate node, pulling static values from the annotations / DAG
    counters and dynamic values from the scheduler state. *)

(** Raises [Invalid_argument] naming the heuristic when its annotation
    column is empty: [annot] came from a static pass that was not asked
    for it (see {!Static_pass.compute_for}). *)
val value : Heuristic.t -> annot:Annot.t -> st:Dyn_state.t -> int -> int

(** The value does not change while a block is scheduled: it reads the
    annotations or the DAG, not the scheduler state.  Every Table-1
    column other than [V] is static, except [Birthing_instruction]: the
    table files it under [A], but its value asks about the most recently
    scheduled node. *)
val is_static : Heuristic.t -> bool
