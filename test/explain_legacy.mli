(** The decisiveness registry's arithmetic as it was before decisiveness
    became a fold over decision records: a mutable cell per strategy
    signature that the engine fed one decision's shape at a time, and a
    snapshot that drops the empty cells and sorts by signature.  Kept
    as the yardstick for [Explain.decisiveness]'s differential tests,
    without the per-domain tables, the mutex or the enable gate.  Not
    for pipeline use. *)

(** Cells by signature. *)
type t

val create : unit -> t

type cell

(** The cell of [signature] in [t], created with [keys] on first use. *)
val cell : t -> signature:string -> keys:string list -> cell

(** Record one decision's shape: [candidates], the ready-set size before
    any rank, and [survivor_counts], the surviving-candidate count after
    each consulted rank.  Forced decisions pass [survivor_counts = []]
    and [forced:true]. *)
val record :
  cell ->
  candidates:int ->
  survivor_counts:int list ->
  forced:bool ->
  tie_break:bool ->
  overruled:bool ->
  unit

(** Every cell with at least one decision, sorted by signature. *)
val snapshot : t -> Ds_obs.Explain.stats
