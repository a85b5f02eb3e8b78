(** Machine latency models.

    The paper's arcs are "weighted according to operation latency; however,
    these latencies can differ according to the dependency type", and it
    highlights three subtleties all representable here:

    - WAR delays can be much shorter than RAW delays (Figure 1 uses a
      1-cycle WAR against a 20-cycle RAW);
    - from the same parent, different RAW delays can reach different
      children: a double-word FP load's two destination registers can
      differ by a cycle, and a store can accept a value earlier than an
      arithmetic consumer;
    - asymmetric bypass paths (IBM RS/6000): the RAW delay depends on
      whether the consumer uses the value as its first or second source
      operand.

    A model computes arc latencies from the parent instruction, the
    conflicting resource, the definition position (0 for a register pair's
    even register, 1 for its partner) and the consumer's source-operand
    position. *)

open Ds_isa

type t = {
  name : string;
  description : string;
  exec_time : Insn.t -> int;
      (** operation latency: cycles until the result is available *)
  raw :
    parent:Insn.t -> def_pos:int -> res:Resource.t -> child:Insn.t ->
    use_pos:int -> int;
  war : parent:Insn.t -> res:Resource.t -> child:Insn.t -> int;
  waw : parent:Insn.t -> res:Resource.t -> child:Insn.t -> int;
  fp_busy : Insn.t -> int;
      (** busy cycles on a non-pipelined FP unit; 0 when fully pipelined *)
}

(** Arc latency dispatch by dependency kind. *)
let arc_latency t ~kind ~parent ~def_pos ~res ~child ~use_pos =
  match (kind : Dep.kind) with
  | Dep.Raw -> t.raw ~parent ~def_pos ~res ~child ~use_pos
  | Dep.War -> t.war ~parent ~res ~child
  | Dep.Waw -> t.waw ~parent ~res ~child
  | Dep.Ctl -> 1

(* Per-opcode tables, read at [Opcode.index]: each is filled once, at
   module initialisation, from a rule over opcodes, so the models below
   pay an array read per call instead of matching the opcode.  Their
   closures are written out in full, so a call through a field is one
   indirect call. *)
let tabulate f =
  let t = Array.make Opcode.count 0 in
  List.iter (fun op -> t.(Opcode.index op) <- f op) Opcode.all;
  t

let read table (insn : Insn.t) = table.(Opcode.index insn.op)

(* Baseline per-opcode operation latencies shared by the concrete models;
   individual models override classes below. *)
let base_exec ~load ~fpadd ~fpmul ~fpdiv ~fsqrt ~imul ~idiv =
  tabulate (fun op ->
      match op with
      | Opcode.Fsqrts | Opcode.Fsqrtd -> fsqrt
      | _ -> (
          match Opcode.cls op with
          | Opcode.C_ialu -> 1
          | Opcode.C_imul -> imul
          | Opcode.C_idiv -> idiv
          | Opcode.C_load -> load
          | Opcode.C_store -> 1
          | Opcode.C_fpadd -> fpadd
          | Opcode.C_fpmul -> fpmul
          | Opcode.C_fpdiv -> fpdiv
          | Opcode.C_fpmisc -> 2
          | Opcode.C_branch | Opcode.C_call | Opcode.C_window | Opcode.C_nop -> 1))

(* 1 for a double-word load, whose odd register becomes available one
   cycle after the even one *)
let pair_load =
  tabulate (fun op -> Bool.to_int (Opcode.is_doubleword op && Opcode.is_load op))

let store = tabulate (fun op -> Bool.to_int (Opcode.is_store op))

(* busy cycles of a non-pipelined FP divide unit: the divide's latency
   less two *)
let fpdiv_busy exec =
  tabulate (fun op ->
      match Opcode.cls op with
      | Opcode.C_fpdiv -> exec.(Opcode.index op) - 2
      | _ -> 0)

(* RAW latency with the register-pair refinement *)
let raw_with_pair exec (parent : Insn.t) def_pos =
  let k = Opcode.index parent.op in
  if def_pos > 0 then exec.(k) + pair_load.(k) else exec.(k)

let waw_of exec parent = Int.max 1 (read exec parent - 1)

(** [simple_risc]: single-issue pipelined RISC with a one-cycle load delay
    slot, unit WAR/WAW delays, all FP units pipelined.  The classic
    Gibbons & Muchnick setting. *)
let simple_risc =
  let exec = base_exec ~load:2 ~fpadd:2 ~fpmul:3 ~fpdiv:6 ~fsqrt:8 ~imul:3 ~idiv:8 in
  {
    name = "simple_risc";
    description = "pipelined single-issue RISC, 1 load delay slot, pipelined FPU";
    exec_time = (fun insn -> read exec insn);
    raw = (fun ~parent ~def_pos ~res:_ ~child:_ ~use_pos:_ ->
        raw_with_pair exec parent def_pos);
    war = (fun ~parent:_ ~res:_ ~child:_ -> 1);
    waw = (fun ~parent ~res:_ ~child:_ -> waw_of exec parent);
    fp_busy = (fun _ -> 0);
  }

(** [deep_fp]: the model behind the paper's Figure 1 — FADD 4 cycles, FDIV
    20 cycles, WAR 1 cycle — with a non-pipelined FP divide unit, so the
    "busy times for floating point function units" heuristic has teeth. *)
let deep_fp =
  let exec = base_exec ~load:2 ~fpadd:4 ~fpmul:6 ~fpdiv:20 ~fsqrt:30 ~imul:5 ~idiv:25 in
  let busy = fpdiv_busy exec in
  {
    name = "deep_fp";
    description = "deep FP pipelines (FADD 4, FDIV 20), non-pipelined FDIV unit";
    exec_time = (fun insn -> read exec insn);
    raw = (fun ~parent ~def_pos ~res:_ ~child:_ ~use_pos:_ ->
        raw_with_pair exec parent def_pos);
    war = (fun ~parent:_ ~res:_ ~child:_ -> 1);
    waw = (fun ~parent ~res:_ ~child:_ -> waw_of exec parent);
    fp_busy = (fun insn -> read busy insn);
  }

(** [asymmetric_bypass]: RS/6000-flavoured forwarding.  A RAW delay to a
    consumer's *second* source operand costs one extra cycle (the paper's
    "asymmetric bypass/forwarding paths" example), while a RAW feeding a
    store's data operand costs one cycle less (stores read their data late
    in the pipe). *)
let asymmetric_bypass =
  let exec = base_exec ~load:2 ~fpadd:3 ~fpmul:4 ~fpdiv:17 ~fsqrt:25 ~imul:4 ~idiv:19 in
  let busy = fpdiv_busy exec in
  {
    name = "asymmetric_bypass";
    description = "RS/6000-style: +1 cycle RAW to 2nd source operand, -1 to store data";
    exec_time = (fun insn -> read exec insn);
    raw =
      (fun ~parent ~def_pos ~res:_ ~child ~use_pos ->
        let base = raw_with_pair exec parent def_pos in
        if read store child = 1 then
          if use_pos = 0 then Int.max 1 (base - 1) else base
        else if use_pos >= 1 then base + 1
        else base);
    war = (fun ~parent:_ ~res:_ ~child:_ -> 1);
    waw = (fun ~parent ~res:_ ~child:_ -> waw_of exec parent);
    fp_busy = (fun insn -> read busy insn);
  }

(** [unit_latency]: every arc costs one cycle; useful for isolating pure
    path-length heuristics in tests. *)
let unit_latency =
  {
    name = "unit_latency";
    description = "all operations and dependencies cost one cycle";
    exec_time = (fun _ -> 1);
    raw = (fun ~parent:_ ~def_pos:_ ~res:_ ~child:_ ~use_pos:_ -> 1);
    war = (fun ~parent:_ ~res:_ ~child:_ -> 1);
    waw = (fun ~parent:_ ~res:_ ~child:_ -> 1);
    fp_busy = (fun _ -> 0);
  }

let all_models = [ simple_risc; deep_fp; asymmetric_bypass; unit_latency ]

let by_name name = List.find_opt (fun m -> m.name = name) all_models
