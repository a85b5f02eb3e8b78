(** The hashtable-and-list superscalar simulator, kept as the yardstick
    for [Pipeline.run ~width]'s differential tests: up to [width] issues
    per cycle, at most one instruction per function unit per cycle, the
    same data rules as [Pipeline].  Not for pipeline use. *)

type result = {
  issue_cycle : int array;
  completion : int;
  issued_per_cycle : (int, int) Hashtbl.t;  (* cycle -> instructions issued *)
}

val run : width:int -> Ds_machine.Latency.t -> Ds_isa.Insn.t array -> result

val cycles : width:int -> Ds_machine.Latency.t -> Ds_isa.Insn.t array -> int

(** Fraction of issue cycles that used more than one slot. *)
val dual_issue_rate : result -> float
