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

let cycles t = Pipeline.completed (Pipeline.play (Ds_dag.Dag.decoded t.dag) t.order)

let stalls t = Pipeline.stalled (Pipeline.play (Ds_dag.Dag.decoded t.dag) t.order)

(** Cycles of the original (unscheduled) order, for before/after reports. *)
let original_cycles t = Pipeline.original_completion (Ds_dag.Dag.decoded t.dag)

type score = { original_cycles : int; cycles : int; stalls : int }

(** The original order's cycles and the schedule's, both over one decode
    of the block. *)
let score t =
  let sc = Ds_dag.Dag.decoded t.dag in
  let original_cycles = Pipeline.original_completion sc in
  let st = Pipeline.play sc t.order in
  { original_cycles; cycles = Pipeline.completed st; stalls = Pipeline.stalled st }

let to_string t =
  insns t |> Array.to_list |> List.map Insn.to_string |> String.concat "\n"

let pp fmt t = Format.pp_print_string fmt (to_string t)
