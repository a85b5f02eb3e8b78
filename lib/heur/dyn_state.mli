(** Scheduler state consulted by the dynamic (column-`v`) heuristics:
    [#unscheduled_parents] counters, per-node earliest execution times,
    the most recently scheduled node and non-pipelined FP unit free times.
    A backward pass mirrors the roles (readiness = all children
    scheduled). *)

type direction = Forward | Backward

type t = {
  dag : Ds_dag.Dag.t;
  direction : direction;
  mutable time : int;
  scheduled : bool array;
  sched_time : int array;
  unscheduled_parents : int array;
  unscheduled_children : int array;
  earliest_exec : int array;
  mutable last : int;        (* most recently scheduled node; -1 before the first *)
  unit_free : int array;     (* per Funit, next free cycle *)
  mutable n_scheduled : int;
}

(** A fresh state: every array is the block's own, [n] entries long. *)
val create : Ds_dag.Dag.t -> direction -> t

(** Arrays a state can borrow instead of allocating its own, grown to
    the largest block they have held.  The caller owns a scratch: one
    state at a time may live in it, so a run that can nest (a callback
    that schedules another block) needs its own. *)
type scratch

val scratch : unit -> scratch

(** [create_in s dag direction] is {!create} over [s]'s arrays.  Their
    first [n] entries are filled exactly as {!create} fills its own, so
    the state reads as a fresh one; the arrays may be longer than [n],
    and the entries past [n] mean nothing.  The state is valid until
    the next [create_in] on [s]. *)
val create_in : scratch -> Ds_dag.Dag.t -> direction -> t

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

(** Unscheduled predecessors of a peer node. *)
val unscheduled_preds_of_peer : t -> int -> int
