(** In-order single-issue pipeline simulator.

    Scores an instruction ordering under a latency model: per-instruction
    issue cycles given data interlocks and busy non-pipelined FP units.
    Independent of the DAG — it tracks resources directly — so it also
    serves as ground truth that a schedule never consumes a value early.
    Resource state carries across the whole sequence, which lets
    {!Ds_sched.Global}-style chains measure cross-block stalls: scan the
    concatenated blocks as one sequence.

    Scoring is two steps.  {!scan} reads a block once into int arrays:
    each resource gets a dense id from an intern table kept per domain
    and reused across blocks.  {!simulate} then issues any ordering of
    the scanned instructions — a permutation of [0 .. n-1], or any
    sequence of distinct indices — against that scan, so the original
    order, a schedule and every trial move of a postpass can be scored
    without reading the instructions again.  The simulator's working
    state is domain-local scratch too, so a scan is an immutable value
    that any domain may simulate any number of times. *)

type result = {
  issue_cycle : int array;   (* per instruction, in sequence order *)
  completion : int;          (* cycle after the last result is ready *)
  stall_cycles : int;        (* issue-slot bubbles from interlocks *)
}

(** A block read once under a latency model. *)
type scan

val scan : Latency.t -> Ds_isa.Insn.t array -> scan

(** [simulate sc order] issues the scanned instructions [order.(0)],
    [order.(1)], ... in that sequence; [issue_cycle] follows [order]. *)
val simulate : scan -> int array -> result

(** [completion] of {!simulate}, without allocating the issue array. *)
val completion : scan -> int array -> int

(** [run model insns] simulates [insns] in array order: {!simulate} over
    a fresh {!scan} in the identity order. *)
val run : Latency.t -> Ds_isa.Insn.t array -> result

(** [completion] of {!run}. *)
val cycles : Latency.t -> Ds_isa.Insn.t array -> int

(** [stall_cycles] of {!run}. *)
val stalls : Latency.t -> Ds_isa.Insn.t array -> int
