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

(** The DAG's block read once, for scoring any order of it. *)
let scan t =
  let dag = t.dag in
  Pipeline.scan (Ds_dag.Dag.model dag)
    (Array.init (Ds_dag.Dag.length dag) (Ds_dag.Dag.insn dag))

(** Simulated execution under the DAG's latency model. *)
let simulate t = Pipeline.simulate (scan t) t.order

let cycles t = (simulate t).Pipeline.completion

let stalls t = (simulate t).Pipeline.stall_cycles

(** Cycles of the original (unscheduled) order, for before/after reports. *)
let original_cycles t = cycles (identity t.dag)

type score = { original_cycles : int; scheduled : Pipeline.result }

(** The original order's cycles and the schedule's simulation, both over
    one scan of the block. *)
let score t =
  let sc = scan t in
  { original_cycles = Pipeline.completion sc (identity t.dag).order;
    scheduled = Pipeline.simulate sc t.order }

let to_string t =
  insns t |> Array.to_list |> List.map Insn.to_string |> String.concat "\n"

let pp fmt t = Format.pp_print_string fmt (to_string t)
