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

(** The block read once for the pipeline simulator; any order of the
    DAG's nodes can be scored against it. *)
val scan : t -> Ds_machine.Pipeline.scan

type score = {
  original_cycles : int;             (* the original order's completion *)
  scheduled : Ds_machine.Pipeline.result;  (* this schedule's simulation *)
}

(** {!original_cycles} and {!simulate} from one scan of the block. *)
val score : t -> score

val to_string : t -> string
val pp : Format.formatter -> t -> unit
