(* The match-based latency models and function-unit rule as they stood
   before the per-opcode tables, kept verbatim as the yardstick for the
   table-driven models' differential test.  Not for pipeline use. *)

open Ds_isa
open Ds_machine
open Latency

(* Baseline per-opcode operation latencies shared by the concrete models;
   individual models override classes below. *)
let base_exec ~load ~fpadd ~fpmul ~fpdiv ~fsqrt ~imul ~idiv (insn : Insn.t) =
  match insn.op with
  | Opcode.Fsqrts | Opcode.Fsqrtd -> fsqrt
  | _ -> (
      match Opcode.cls insn.op with
      | Opcode.C_ialu -> 1
      | Opcode.C_imul -> imul
      | Opcode.C_idiv -> idiv
      | Opcode.C_load -> load
      | Opcode.C_store -> 1
      | Opcode.C_fpadd -> fpadd
      | Opcode.C_fpmul -> fpmul
      | Opcode.C_fpdiv -> fpdiv
      | Opcode.C_fpmisc -> 2
      | Opcode.C_branch | Opcode.C_call | Opcode.C_window | Opcode.C_nop -> 1)

(* RAW latency with the register-pair refinement: the odd register of a
   double-word load becomes available one cycle after the even one. *)
let raw_with_pair exec ~parent ~def_pos ~res:_ ~child:_ ~use_pos:_ =
  let base = exec parent in
  if Opcode.is_doubleword parent.Insn.op && Opcode.is_load parent.Insn.op
     && def_pos > 0
  then base + 1
  else base

(** [simple_risc]: single-issue pipelined RISC with a one-cycle load delay
    slot, unit WAR/WAW delays, all FP units pipelined.  The classic
    Gibbons & Muchnick setting. *)
let simple_risc =
  let exec = base_exec ~load:2 ~fpadd:2 ~fpmul:3 ~fpdiv:6 ~fsqrt:8 ~imul:3 ~idiv:8 in
  {
    name = "simple_risc";
    description = "pipelined single-issue RISC, 1 load delay slot, pipelined FPU";
    exec_time = exec;
    raw = raw_with_pair exec;
    war = (fun ~parent:_ ~res:_ ~child:_ -> 1);
    waw = (fun ~parent ~res:_ ~child:_ -> Int.max 1 (exec parent - 1));
    fp_busy = (fun _ -> 0);
  }

(** [deep_fp]: the model behind the paper's Figure 1 — FADD 4 cycles, FDIV
    20 cycles, WAR 1 cycle — with a non-pipelined FP divide unit, so the
    "busy times for floating point function units" heuristic has teeth. *)
let deep_fp =
  let exec = base_exec ~load:2 ~fpadd:4 ~fpmul:6 ~fpdiv:20 ~fsqrt:30 ~imul:5 ~idiv:25 in
  {
    name = "deep_fp";
    description = "deep FP pipelines (FADD 4, FDIV 20), non-pipelined FDIV unit";
    exec_time = exec;
    raw = raw_with_pair exec;
    war = (fun ~parent:_ ~res:_ ~child:_ -> 1);
    waw = (fun ~parent ~res:_ ~child:_ -> Int.max 1 (exec parent - 1));
    fp_busy =
      (fun insn ->
        match Opcode.cls insn.op with
        | Opcode.C_fpdiv -> exec insn - 2
        | _ -> 0);
  }

(** [asymmetric_bypass]: RS/6000-flavoured forwarding.  A RAW delay to a
    consumer's *second* source operand costs one extra cycle (the paper's
    "asymmetric bypass/forwarding paths" example), while a RAW feeding a
    store's data operand costs one cycle less (stores read their data late
    in the pipe). *)
let asymmetric_bypass =
  let exec = base_exec ~load:2 ~fpadd:3 ~fpmul:4 ~fpdiv:17 ~fsqrt:25 ~imul:4 ~idiv:19 in
  {
    name = "asymmetric_bypass";
    description = "RS/6000-style: +1 cycle RAW to 2nd source operand, -1 to store data";
    exec_time = exec;
    raw =
      (fun ~parent ~def_pos ~res ~child ~use_pos ->
        let base = raw_with_pair exec ~parent ~def_pos ~res ~child ~use_pos in
        if Opcode.is_store child.Insn.op && use_pos = 0 then Int.max 1 (base - 1)
        else if use_pos >= 1 && not (Opcode.is_store child.Insn.op) then base + 1
        else base);
    war = (fun ~parent:_ ~res:_ ~child:_ -> 1);
    waw = (fun ~parent ~res:_ ~child:_ -> Int.max 1 (exec parent - 1));
    fp_busy =
      (fun insn ->
        match Opcode.cls insn.op with
        | Opcode.C_fpdiv -> exec insn - 2
        | _ -> 0);
  }

(** [unit_latency]: every arc costs one cycle; useful for isolating pure
    path-length heuristics in tests. *)
let unit_latency =
  let exec _ = 1 in
  {
    name = "unit_latency";
    description = "all operations and dependencies cost one cycle";
    exec_time = exec;
    raw = (fun ~parent:_ ~def_pos:_ ~res:_ ~child:_ ~use_pos:_ -> 1);
    war = (fun ~parent:_ ~res:_ ~child:_ -> 1);
    waw = (fun ~parent:_ ~res:_ ~child:_ -> 1);
    fp_busy = (fun _ -> 0);
  }

let all_models = [ simple_risc; deep_fp; asymmetric_bypass; unit_latency ]


(** Unit an instruction executes on, by opcode class. *)
let funit_of_insn (insn : Ds_isa.Insn.t) =
  match Ds_isa.Opcode.cls insn.op with
  | Ds_isa.Opcode.C_ialu -> Funit.Iu
  | Ds_isa.Opcode.C_imul | Ds_isa.Opcode.C_idiv -> Funit.Mdu
  | Ds_isa.Opcode.C_load | Ds_isa.Opcode.C_store -> Funit.Lsu
  | Ds_isa.Opcode.C_fpadd | Ds_isa.Opcode.C_fpmisc -> Funit.Fpa
  | Ds_isa.Opcode.C_fpmul -> Funit.Fpm
  | Ds_isa.Opcode.C_fpdiv -> Funit.Fpd
  | Ds_isa.Opcode.C_branch | Ds_isa.Opcode.C_call -> Funit.Bru
  | Ds_isa.Opcode.C_window | Ds_isa.Opcode.C_nop -> Funit.Iu
