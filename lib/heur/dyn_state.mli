(** Scheduler state consulted by the dynamic (column-`v`) heuristics:
    [#unscheduled_parents] counters, per-node earliest execution times,
    the most recently scheduled node and non-pipelined FP unit free times.
    A backward pass mirrors the roles (readiness = all children
    scheduled). *)

type direction = Forward | Backward

type t = {
  mutable dag : Ds_dag.Dag.t;
  mutable direction : direction;
  mutable time : int;
  mutable scheduled : bool array;
  mutable sched_time : int array;
  mutable unscheduled_parents : int array;
  mutable unscheduled_children : int array;
  mutable earliest_exec : int array;
  mutable last : int;        (* most recently scheduled node; -1 before the first *)
  unit_free : int array;     (* per Funit, next free cycle *)
  mutable n_scheduled : int;
}

(** A fresh state: every array is the block's own, [n] entries long. *)
val create : Ds_dag.Dag.t -> direction -> t

(** A state reused from block to block instead of allocated afresh:
    {!create_in} resets it in place, and its arrays grow to the largest
    block it has held.  The caller owns a scratch: one state at a time
    may live in it, so a run that can nest (a callback that schedules
    another block) needs its own. *)
type scratch = t

(** A scratch over no block. *)
val scratch : unit -> scratch

(** [create_in s dag direction] resets [s] to {!create}'s state and
    returns it: [s] itself, so no record is allocated.  The first [n]
    entries of its arrays are filled exactly as {!create} fills its own,
    so the state reads as a fresh one; the arrays may be longer than
    [n], and the entries past [n] mean nothing.  The state is valid
    until the next [create_in] on [s]. *)
val create_in : scratch -> Ds_dag.Dag.t -> direction -> t

(** [release s] drops [s]'s reference to the DAG of its last state, so
    that a scratch kept between runs does not keep that DAG alive; the
    state is no longer valid. *)
val release : scratch -> unit

(** Seed with operation latencies inherited from the preceding block
    (§2's global information): [pending] maps a resource to the cycle,
    relative to this block's first issue slot, at which its value becomes
    available; [unit_busy] gives residual busy cycles per function
    unit. *)
val seed :
  t -> pending:(Ds_isa.Resource.t * int) list -> unit_busy:int array -> unit

(** All predecessors (in the scheduling direction) scheduled. *)
val available : t -> int -> bool

(** Available and past its earliest execution time. *)
val ready : t -> int -> bool

val complete : t -> bool

(** Record that a node issues at [at]: updates the uncovering counters and
    propagates earliest execution times along the arcs. *)
val schedule : t -> int -> at:int -> unit

(** [fold_successors t i f acc] folds [f acc peer latency kind] over the
    arcs leaving [i] in the scheduling direction: [peer] is a child when
    scheduling forward, a parent when scheduling backward.  Arcs come in
    {!Ds_dag.Dag.iter_succ}/{!Ds_dag.Dag.iter_pred} chain order. *)
val fold_successors :
  t -> int -> ('a -> int -> int -> Ds_machine.Dep.kind -> 'a) -> 'a -> 'a

(** The same arcs through the DAG's cursor (see {!Ds_dag.Dag}), for
    loops that build no closure: [out_first t i] is the id of [i]'s
    first arc in the scheduling direction, [out_next t a] the next one
    ([-1] past the end) and [out_peer t a] the arc's peer.  Read its
    latency and kind with {!Ds_dag.Dag.arc_latency} and
    {!Ds_dag.Dag.arc_kind}. *)
val out_first : t -> int -> int

val out_next : t -> int -> int
val out_peer : t -> int -> int

(** [out_arc t i ~peer] is the id of the arc leaving [i] for [peer] in
    the scheduling direction, or [-1]: arcs between a pair are
    coalesced, so there is at most one. *)
val out_arc : t -> int -> peer:int -> int

(** Unscheduled predecessors of a peer node. *)
val unscheduled_preds_of_peer : t -> int -> int
