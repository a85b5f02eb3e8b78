(** Schedules: a permutation of a block's instructions plus scoring on the
    pipeline simulator. *)

type t = {
  dag : Ds_dag.Dag.t;
  order : int array;  (* node ids in new program order *)
}

val make : Ds_dag.Dag.t -> int array -> t

(** The original program order. *)
val identity : Ds_dag.Dag.t -> t

val length : t -> int

(** Instructions in scheduled order. *)
val insns : t -> Ds_isa.Insn.t array

(** Simulated execution under the DAG's latency model. *)
val simulate : t -> Ds_machine.Pipeline.result

val cycles : t -> int
val stalls : t -> int

(** Cycles of the original order, for before/after reports. *)
val original_cycles : t -> int

type score = {
  original_cycles : int;             (* the original order's completion *)
  scheduled : Ds_machine.Pipeline.result;  (* this schedule's simulation *)
}

(** {!original_cycles} and {!simulate} from one decode of the block:
    the decode a table builder made of the DAG's block when it is still
    this domain's current {!Ds_machine.Pipeline.decode}
    ({!Ds_dag.Dag.decoded}), else a fresh decode into the same
    scratch.  Allocates only the schedule's issue array and the result
    records.  {!simulate}, {!cycles}, {!stalls} and {!original_cycles}
    read the block the same way. *)
val score : t -> score

val to_string : t -> string
val pp : Format.formatter -> t -> unit
