(** Schedules: a permutation of a block's instructions plus scoring. *)

open Ds_isa
open Ds_machine

type t = {
  dag : Ds_dag.Dag.t;
  order : int array;  (* node ids in new program order *)
}

let make dag order = { dag; order }

let identity dag =
  { dag; order = Array.init (Ds_dag.Dag.length dag) (fun i -> i) }

let length t = Array.length t.order

(** Instructions in scheduled order. *)
let insns t = Array.map (Ds_dag.Dag.insn t.dag) t.order

(** Simulated execution under the DAG's latency model. *)
let simulate t = Pipeline.simulate (Ds_dag.Dag.decoded t.dag) t.order

let cycles t = (simulate t).Pipeline.completion

let stalls t = (simulate t).Pipeline.stall_cycles

(** Cycles of the original (unscheduled) order, for before/after reports. *)
let original_cycles t = Pipeline.original_completion (Ds_dag.Dag.decoded t.dag)

type score = { original_cycles : int; scheduled : Pipeline.result }

(** The original order's cycles and the schedule's simulation, both over
    one decode of the block. *)
let score t =
  let sc = Ds_dag.Dag.decoded t.dag in
  { original_cycles = Pipeline.original_completion sc;
    scheduled = Pipeline.simulate sc t.order }

let to_string t =
  insns t |> Array.to_list |> List.map Insn.to_string |> String.concat "\n"

let pp fmt t = Format.pp_print_string fmt (to_string t)
