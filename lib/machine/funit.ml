(** Function units.

    Used for structural hazards: the "busy times for floating point
    function units" dynamic heuristic (Table 1), the refined reservation
    table scheduling mode, and the pipeline simulator. *)

type t =
  | Iu    (* integer ALU *)
  | Mdu   (* integer multiply/divide *)
  | Lsu   (* load/store *)
  | Fpa   (* FP add pipeline *)
  | Fpm   (* FP multiply pipeline *)
  | Fpd   (* FP divide/sqrt, typically non-pipelined *)
  | Bru   (* branch *)

let all = [ Iu; Mdu; Lsu; Fpa; Fpm; Fpd; Bru ]

let count = List.length all

let index = function
  | Iu -> 0 | Mdu -> 1 | Lsu -> 2 | Fpa -> 3 | Fpm -> 4 | Fpd -> 5 | Bru -> 6

let of_index = function
  | 0 -> Iu | 1 -> Mdu | 2 -> Lsu | 3 -> Fpa | 4 -> Fpm | 5 -> Fpd | 6 -> Bru
  | i -> invalid_arg (Printf.sprintf "Funit.of_index %d" i)

let to_string = function
  | Iu -> "IU" | Mdu -> "MDU" | Lsu -> "LSU" | Fpa -> "FPA" | Fpm -> "FPM"
  | Fpd -> "FPD" | Bru -> "BRU"

let pp fmt t = Format.pp_print_string fmt (to_string t)

(* Unit an opcode executes on, by class *)
let of_op op =
  match Ds_isa.Opcode.cls op with
  | Ds_isa.Opcode.C_ialu -> Iu
  | Ds_isa.Opcode.C_imul | Ds_isa.Opcode.C_idiv -> Mdu
  | Ds_isa.Opcode.C_load | Ds_isa.Opcode.C_store -> Lsu
  | Ds_isa.Opcode.C_fpadd | Ds_isa.Opcode.C_fpmisc -> Fpa
  | Ds_isa.Opcode.C_fpmul -> Fpm
  | Ds_isa.Opcode.C_fpdiv -> Fpd
  | Ds_isa.Opcode.C_branch | Ds_isa.Opcode.C_call -> Bru
  | Ds_isa.Opcode.C_window | Ds_isa.Opcode.C_nop -> Iu

(* [of_op] per opcode, read at [Opcode.index] *)
let by_opcode =
  let t = Array.make Ds_isa.Opcode.count Iu in
  List.iter (fun op -> t.(Ds_isa.Opcode.index op) <- of_op op) Ds_isa.Opcode.all;
  t

(** Unit an instruction executes on, by opcode class. *)
let of_insn (insn : Ds_isa.Insn.t) = by_opcode.(Ds_isa.Opcode.index insn.op)
