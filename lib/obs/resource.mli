(** Per-phase GC/heap resource profiling.

    {!Trace} answers "where does the {e time} go"; this module answers
    "where does the {e allocation} go".  {!with_phase} brackets a region
    with [Gc.quick_stat] and accumulates the deltas — minor/promoted/
    major words, minor/major collections, heap high-water — into a
    registry keyed by phase name ([dag_build], [heur_static],
    [schedule], [verify]); an optional [detail] (the DAG builder name)
    accumulates the same delta under ["phase/detail"] too, giving
    per-builder attribution.

    Word counts are as seen by the {e executing domain} (OCaml 5 keeps
    allocation counters per domain); collection counts and heap words
    come from the same [quick_stat].  Nested phases both count their
    overlap — the pipeline's phases are disjoint, so in practice the
    rows partition the run.

    Disabled by default: {!with_phase} is [f ()] plus one atomic read,
    so report bytes are untouched — same gating discipline as
    {!Trace}/{!Metrics}.  Enabled by [schedtool --resource]; the
    snapshot is exported in the report JSON (["resource"] field) and,
    when tracing is also on, each phase end emits {!Trace.record_counter}
    events so Perfetto renders heap/GC counter tracks alongside the
    span timeline. *)

val enable : unit -> unit
val disable : unit -> unit
val is_enabled : unit -> bool

(** [with_phase ?detail phase f] runs [f ()]; when enabled, accumulates
    the GC-stat delta under [phase] (and ["phase/detail"]).  The delta
    is recorded even when [f] raises. *)
val with_phase : ?detail:string -> string -> (unit -> 'a) -> 'a

(** One accumulated row. *)
type phase_stat = {
  phase : string;
  calls : int;                (** completed {!with_phase} brackets *)
  minor_words : float;        (** words allocated in the minor heap *)
  promoted_words : float;     (** words promoted minor -> major *)
  major_words : float;        (** words allocated in the major heap *)
  minor_collections : int;
  major_collections : int;
  top_heap_words : int;       (** max heap high-water seen at a bracket end *)
}

(** Name-sorted rows with at least one call — deterministic for a given
    workload, like every other snapshot in the tree. *)
val snapshot : unit -> phase_stat list

(** Zero the registry (enabled state unchanged). *)
val reset : unit -> unit

(** Field-wise, NaN-tolerant on the float fields. *)
val equal : phase_stat list -> phase_stat list -> bool

(** Schema in docs/FORMAT.md ("resource").  {!of_json} is total over
    arbitrary JSON and round trips {!to_json} up to {!equal}. *)
val to_json : phase_stat list -> Json.t

val of_json :
  ?path:string list -> Json.t -> (phase_stat list, Json.error) result
