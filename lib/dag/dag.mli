(** The dependence DAG, stored as a flat arena.

    Nodes are the instructions of one basic block, identified by index;
    arcs are data dependencies weighted by operation latency.  [add_arc]
    performs the paper's Table-1 column-`a` bookkeeping: it maintains the
    [#children]/[#parents] counters, the interlock-with-child flag, and
    the delay sums behind the "φ delays to children / from parents"
    heuristics.  Arcs between the same pair are coalesced to the most
    constraining dependency, so [#children] counts distinct child nodes;
    equal-latency ties between kinds resolve RAW > WAW > WAR > CTL, so
    annotations are independent of builder visit order.  Coalescing is
    O(1): each node keeps its highest child and lowest parent, and only
    an add that neither bound decides builds an open-addressed index.

    Internally the graph is flat int arrays: packed arcs, intrusive
    succ/pred chains, packed per-node counters, and an optional
    contiguous reachability bit matrix.  Passes read adjacency through
    {!iter_succ}/{!iter_pred} and their folds, which walk the chains and
    allocate nothing per arc; structural identity is exposed as an
    insertion-order-independent {!fingerprint}. *)

type arc = {
  src : int;
  dst : int;
  kind : Ds_machine.Dep.kind;
  latency : int;
}

type t

(** Blocks must be shorter than [2^20] instructions (arena packing
    bound); raises [Invalid_argument] otherwise. *)
val create : model:Ds_machine.Latency.t -> Ds_isa.Insn.t array -> t

val length : t -> int
val insn : t -> int -> Ds_isa.Insn.t
val model : t -> Ds_machine.Latency.t

(** The block's instructions, shared with the DAG (do not mutate). *)
val insns : t -> Ds_isa.Insn.t array

(** This domain's {!Ds_machine.Pipeline.decode} of the DAG's block: the
    one a table builder made it from, which it stamps with
    [set_decode_gen], while that is still the domain's current decode,
    else a fresh decode.  So timing never rescans a constructed block. *)
val decoded : t -> Ds_machine.Pipeline.scan

val set_decode_gen : t -> int -> unit

(** [iter_succ t i f] calls [f dst latency kind] for every outgoing arc
    of [i], most recently added first; [iter_pred t i f] calls
    [f src latency kind] for every incoming arc, in the same order.  A
    coalesce upgrade is visible from both ends as soon as [add_arc]
    returns. *)
val iter_succ : t -> int -> (int -> int -> Ds_machine.Dep.kind -> unit) -> unit

val iter_pred : t -> int -> (int -> int -> Ds_machine.Dep.kind -> unit) -> unit

(** Folds over the same walks: [f acc peer latency kind]. *)
val fold_succ :
  t -> int -> ('a -> int -> int -> Ds_machine.Dep.kind -> 'a) -> 'a -> 'a

val fold_pred :
  t -> int -> ('a -> int -> int -> Ds_machine.Dep.kind -> 'a) -> 'a -> 'a

(* the column-`a` heuristic counters, maintained by add_arc *)
val n_children : t -> int -> int
val n_parents : t -> int -> int
val n_arcs : t -> int
val sum_delays_to_children : t -> int -> int
val max_delay_to_child : t -> int -> int
val sum_delays_from_parents : t -> int -> int
val max_delay_from_parent : t -> int -> int

(** Any outgoing arc with delay > 1 — the static interlock-with-child
    predicate. *)
val interlock_with_child : t -> int -> bool

(** Out-of-range node indices simply report no arc ([None]/[false]) —
    they can never alias an in-range pair. *)
val find_arc : t -> src:int -> dst:int -> arc option

val has_arc : t -> src:int -> dst:int -> bool

(** [add_arc t ~src ~dst ~kind ~latency] inserts (or upgrades to a larger
    latency) the arc; self-arcs are ignored.  Returns [true] when a new
    arc was created.  Raises [Invalid_argument] on an out-of-range node
    index or a latency outside [0, 2^20). *)
val add_arc :
  t -> src:int -> dst:int -> kind:Ds_machine.Dep.kind -> latency:int -> bool

(** Nodes with no parents / no children.  A block may yield several roots
    — the paper's "forest". *)
val roots : t -> int list
val leaves : t -> int list

(** Number of weakly connected components. *)
val forest_size : t -> int

(** Add control arcs from every true leaf to a block-terminating branch so
    the branch schedules last (§2's dummy-leaf convention). *)
val anchor_terminator : t -> unit

(** Descendant bit maps as one contiguous matrix (row per node), when a
    builder maintained them (the [#descendants] heuristic is a row
    population count minus one). *)
val set_reach_matrix : t -> Ds_util.Bitset.Matrix.m -> unit
val reach_matrix : t -> Ds_util.Bitset.Matrix.m option

(** Every arc as a record: [iter_arcs] visits nodes in ascending order
    and each node's outgoing arcs in {!iter_succ} order; [arcs] lists
    them in the reverse of that visit order. *)
val iter_arcs : (arc -> unit) -> t -> unit
val arcs : t -> arc list

(** All arcs point from lower to higher instruction index (program order
    is a topological order); checks the invariant. *)
val forward_ordered : t -> bool

(** FNV-1a (64-bit) digest of the arena: node count plus the packed arc
    set, independent of arc insertion order — the future
    content-addressed cache key (combined with block text, builder,
    strategy and machine model). *)
val fingerprint : t -> int64

val pp : Format.formatter -> t -> unit
