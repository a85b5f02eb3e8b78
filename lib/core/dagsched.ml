(** Dagsched — a faithful reproduction of

    {e Smotherman, Krishnamurthy, Aravind, Hunnicutt: "Efficient DAG
    Construction and Heuristic Calculation for Instruction Scheduling",
    Proc. MICRO-24, 1991.}

    The library covers basic-block instruction scheduling end to end:

    - a SPARC-like ISA with parser/printer ({!Reg}, {!Opcode}, {!Insn},
      {!Parser});
    - machine timing models and an in-order pipeline simulator of any
      issue width ({!Latency}, {!Pipeline});
    - basic-block formation ({!Block}, {!Cfg_builder});
    - six DAG construction algorithms — compare-against-all
      forward/backward, table-building forward/backward, and two
      transitive-arc-avoiding variants ({!Builder}, {!Dag});
    - the paper's 26 scheduling heuristics with their Table-1 taxonomy
      ({!Heuristic}), static annotation passes ({!Static_pass}) and
      dynamic evaluators ({!Dynamic});
    - a generic list scheduler plus the six published algorithms of
      Table 2 ({!Engine}, {!Published});
    - workload generators calibrated to the paper's Table 3
      ({!Profiles}) and the paper's own numbers as data ({!Paper_data});
    - a mini-language compiler for writing kernels ({!Ast}, {!Codegen},
      {!Kernels}).

    Quickstart:
    {[
      let block = List.hd (Dagsched.Codegen.compile_to_blocks Dagsched.Kernels.daxpy) in
      let dag = Dagsched.Builder.build Dagsched.Builder.Table_forward
                  Dagsched.Opts.default block in
      let sched = Dagsched.Published.(run_on_dag warren) dag in
      Printf.printf "cycles: %d -> %d\n"
        (Dagsched.Schedule.original_cycles sched)
        (Dagsched.Schedule.cycles sched)
    ]} *)

(* utilities *)
module Prng = Ds_util.Prng
module Bitset = Ds_util.Bitset
module Stats = Ds_util.Stats
module Table = Ds_util.Table
module Pool = Ds_util.Pool

(* observability: monotonic-leaning clock, span tracing (time,
   minor-heap words and counts per phase, Chrome trace-event export),
   structured event log *)
module Json = Ds_obs.Json
module Clock = Ds_obs.Clock
module Trace = Ds_obs.Trace
module Log = Ds_obs.Log
module Frame = Ds_obs.Frame
module Explain = Ds_obs.Explain

(* ISA *)
module Reg = Ds_isa.Reg
module Mem_expr = Ds_isa.Mem_expr
module Resource = Ds_isa.Resource
module Opcode = Ds_isa.Opcode
module Operand = Ds_isa.Operand
module Insn = Ds_isa.Insn
module Parser = Ds_isa.Parser
module Interp = Ds_isa.Interp

(* machine model *)
module Dep = Ds_machine.Dep
module Funit = Ds_machine.Funit
module Latency = Ds_machine.Latency
module Pipeline = Ds_machine.Pipeline

(* basic blocks *)
module Block = Ds_cfg.Block
module Cfg_builder = Ds_cfg.Builder
module Summary = Ds_cfg.Summary

(* DAG construction *)
module Dag = Ds_dag.Dag
module Opts = Ds_dag.Opts
module Builder = Ds_dag.Builder
module Disambiguate = Ds_dag.Disambiguate
module Pairdep = Ds_dag.Pairdep
module Closure = Ds_dag.Closure
module Dag_stats = Ds_dag.Dag_stats
module Dot = Ds_dag.Dot

(* heuristics *)
module Heuristic = Ds_heur.Heuristic
module Annot = Ds_heur.Annot
module Static_pass = Ds_heur.Static_pass
module Level = Ds_heur.Level
module Liveness = Ds_heur.Liveness
module Dyn_state = Ds_heur.Dyn_state
module Dynamic = Ds_heur.Dynamic
module Evaluate = Ds_heur.Evaluate

(* scheduling *)
module Engine = Ds_sched.Engine
module Schedule = Ds_sched.Schedule
module Verify = Ds_sched.Verify
module Fixup = Ds_sched.Fixup
module Published = Ds_sched.Published
module Optimal = Ds_sched.Optimal
module Global = Ds_sched.Global
module Delay_slot = Ds_sched.Delay_slot
module Resv_sched = Ds_sched.Resv_sched
module Reglimit = Ds_sched.Reglimit
module Gantt = Ds_sched.Gantt
module Emit = Ds_sched.Emit

(* parallel batch driver + scheduling-as-a-service daemon with its
   result cache *)
module Batch = Ds_driver.Batch
module Cache = Ds_driver.Cache
module Serve = Ds_driver.Serve

(* workloads *)
module Gen = Ds_workload.Gen
module Profiles = Ds_workload.Profiles
module Paper_data = Ds_workload.Paper_data
module Sweep = Ds_workload.Sweep

(* mini-language *)
module Ast = Ds_codegen.Ast
module Codegen = Ds_codegen.Codegen
module Kernels = Ds_codegen.Kernels
