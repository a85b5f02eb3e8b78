(** In-order pipeline simulator.

    Scores an instruction ordering under a latency model: per-instruction
    issue cycles given data interlocks and busy non-pipelined FP units.
    Up to [width] instructions issue per cycle, in order, at most one
    per function unit: an instruction issues no earlier than its
    predecessor's cycle while that cycle has a slot left and its unit
    has not issued in it, and the cycle after otherwise.  At width 1
    (the default, and the only width {!simulate} and the completions
    use) that is "the slot after the predecessor".  The structural rule
    is what makes the alternate-type heuristic pay on a superscalar
    machine.
    Independent of the DAG — it tracks resources directly — so it also
    serves as ground truth that a schedule never consumes a value early.
    Resource state carries across the whole sequence, which lets
    {!Ds_sched.Global}-style chains measure cross-block stalls: scan the
    concatenated blocks as one sequence.

    Scoring is two steps.  {!decode} reads a block once into int arrays
    of this domain's scratch: each resource gets a dense block-local id
    (through an intern table kept per domain and reused across blocks,
    started afresh once it holds more than 8,192 memory expressions),
    and each instruction its definitions and uses with their positions,
    its execution time, busy time and functional unit.  {!simulate} then
    issues any ordering of the decoded instructions — a permutation of
    [0 .. n-1], or any sequence of distinct indices — against a decode,
    so the original order, a schedule and every trial move of a postpass
    can be scored without reading the instructions again.

    The decode is the only routine that reads a block's resources: the
    table DAG builders construct from it, and [Schedule.score] simulates
    over it while it is still this domain's current decode.  A decode
    stays valid until the next {!decode} on the same domain.

    Every timing runs in one machine state per domain that issues one
    decoded instruction at a time: {!simulate} replays a whole order,
    and {!issue} and {!undo} let the fixup and the optimal search extend
    an order and take it back, paying only for what they issue. *)

type result = {
  issue_cycle : int array;   (* per instruction, in sequence order *)
  completion : int;          (* cycle after the last result is ready *)
  stall_cycles : int;        (* issue-slot bubbles from interlocks *)
}

(** A block read once under a latency model.  Resource id [r < n_res]
    denotes [res.(r)]; instruction [i] defines
    [def_ids.(def_start.(i)) .. def_ids.(def_start.(i+1) - 1)] in
    definition order ({!Ds_isa.Insn.scan_defs}) and uses [use_ids]
    likewise ({!Ds_isa.Insn.scan_uses}), where an occurrence's position
    is its offset from the instruction's start.  A domain's decode keeps
    its arrays from block to block, so they may be longer than the live
    prefixes: [def_start]/[use_start] up to [n], the id arrays up to
    [def_start.(n)]/[use_start.(n)], [exec]/[busy]/[unit] below [n]. *)
type scan = private {
  mutable gen : int;               (* see {!decode} *)
  mutable model : Latency.t;
  mutable insns : Ds_isa.Insn.t array;
  mutable n_res : int;
  mutable res : Ds_isa.Resource.t array;
  mutable def_start : int array;
  mutable def_ids : int array;
  mutable use_start : int array;
  mutable use_ids : int array;
  mutable exec : int array;        (* Latency.exec_time *)
  mutable busy : int array;        (* Latency.fp_busy *)
  mutable unit : int array;        (* Funit.index *)
}

(** [decode model insns] reads the block into this domain's decode and
    returns it, stamped with a generation drawn from a process-wide
    counter — so no two decodes, on any domains, share one.  The result
    is overwritten by the next [decode] on this domain.  Allocates
    nothing once the domain's arrays have grown to the block. *)
val decode : Latency.t -> Ds_isa.Insn.t array -> scan

(** [decoded ~gen model insns] is this domain's decode when its
    generation is [gen] (it must then be a decode of [model] and
    [insns]), and otherwise [decode model insns]. *)
val decoded : gen:int -> Latency.t -> Ds_isa.Insn.t array -> scan

(** [simulate sc order] issues the decoded instructions [order.(0)],
    [order.(1)], ... in that sequence; [issue_cycle] follows [order]. *)
val simulate : scan -> int array -> result

(** [completion] of the original order [0 .. n-1]; allocates nothing. *)
val original_completion : scan -> int

(** This domain's machine state, issuing one decode at width 1: emptied
    by {!start}, overwritten by any other timing call on the domain, and
    valid while its decode is current. *)
type state

(** Empty this domain's state for issuing a decode. *)
val start : scan -> state

(** [issue st i] issues decoded instruction [i], not issued yet, next
    and returns its cycle, logging what it overwrites; allocates
    nothing. *)
val issue : state -> int -> int

(** [undo st m] takes back, last first, each instruction issued since
    [m = mark st], at the cost of issuing it. *)
val mark : state -> int
val undo : state -> int -> unit

(** The completion of what is issued so far, and the first cycle open to
    the next issue. *)
val completed : state -> int
val next_issue : state -> int

(** [run ?width model insns] simulates [insns] in array order over a
    fresh {!decode}, issuing up to [width] (default 1, at least 1)
    instructions a cycle; at width 1 it is {!simulate} in the identity
    order. *)
val run : ?width:int -> Latency.t -> Ds_isa.Insn.t array -> result

(** [completion] of {!run}. *)
val cycles : ?width:int -> Latency.t -> Ds_isa.Insn.t array -> int

(** [stall_cycles] of {!run}. *)
val stalls : Latency.t -> Ds_isa.Insn.t array -> int

(** Fraction of a result's issue cycles that issued more than one
    instruction: how balanced the stream is across the function units
    (the alternate-type heuristic's target).  0 for an empty result. *)
val dual_issue_rate : result -> float
