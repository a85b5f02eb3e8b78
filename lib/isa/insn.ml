(** Instructions and their defined/used resources.

    Operands follow SPARC assembler order: sources first, destination last.
    [defs]/[uses] extract dependence resources with the conventions the
    paper relies on:

    - [%g0] is hardwired to zero and never a resource;
    - condition-code setters define [%icc]/[%fcc], conditional branches use
      them;
    - integer multiply defines the [%y] register, divide uses it;
    - double-word loads define a register *pair* (and stores use one), the
      case the paper cites for per-destination RAW delay differences;
    - double-word memory references touch both the named symbolic address
      expression and the one four bytes above it;
    - memory references yield a [Resource.Mem] carrying the symbolic
      address expression; the DAG builders decide aliasing via a
      disambiguation strategy. *)

type t = {
  index : int;                  (* position within the program *)
  op : Opcode.t;
  operands : Operand.t list;
  annul : bool;                 (* branch annul bit (",a") *)
  label : string option;        (* label attached to this instruction *)
}

let make ?(index = -1) ?(annul = false) ?label op operands =
  { index; op; operands; annul; label }

let with_index t index = { t with index }

(** Reusable resource-scan buffer — the allocation-free core behind
    [defs]/[uses_with_pos].  Definition and use positions are always the
    sequential 0-based emission index, so a scan is just the resource
    array plus a length; DAG builders keep one buffer per domain and
    loop over indices instead of consuming lists.  The scan helpers
    below are top-level and thread the buffer explicitly, so a scan
    allocates nothing: registers are preallocated [Resource.t] values,
    and a memory entry keeps its operand's expression and the offset to
    add to it (4 for a double-word's second word), boxed as a
    [Resource.Mem] only when {!Scan.res} asks and interned by
    {!Scan.id} without boxing. *)
module Scan = struct
  type buf = {
    mutable res : Resource.t array;
    mutable mem : Mem_expr.t array;
    mutable delta : int array;  (* memory: offset to add; otherwise -1 *)
    mutable len : int;
  }

  let no_mem = Mem_expr.make_sym ""

  let create () =
    { res = Array.make 8 Resource.Ctrl; mem = Array.make 8 no_mem;
      delta = Array.make 8 (-1); len = 0 }

  let grow b =
    let cap = 2 * Array.length b.res in
    let res = Array.make cap Resource.Ctrl
    and mem = Array.make cap no_mem
    and delta = Array.make cap (-1) in
    Array.blit b.res 0 res 0 b.len;
    Array.blit b.mem 0 mem 0 b.len;
    Array.blit b.delta 0 delta 0 b.len;
    b.res <- res;
    b.mem <- mem;
    b.delta <- delta

  let push b r =
    if b.len >= Array.length b.res then grow b;
    b.res.(b.len) <- r;
    b.delta.(b.len) <- -1;
    b.len <- b.len + 1

  let push_mem b m delta =
    if b.len >= Array.length b.res then grow b;
    b.mem.(b.len) <- m;
    b.delta.(b.len) <- delta;
    b.len <- b.len + 1

  let len b = b.len

  let res b i =
    let delta = b.delta.(i) in
    if delta < 0 then b.res.(i)
    else
      let m = b.mem.(i) in
      Resource.Mem
        (if delta = 0 then m else { m with Mem_expr.offset = m.Mem_expr.offset + delta })

  let id ids b i =
    let delta = b.delta.(i) in
    if delta < 0 then Resource.Ids.id ids b.res.(i)
    else Resource.Ids.mem_id ids b.mem.(i) delta
end

(* Every non-%g0 register operand, in operand order. *)
let rec push_all_reg_srcs b ops =
  match ops with
  | [] -> ()
  | Operand.Reg r :: rest ->
      if not (Reg.is_zero r) then Scan.push b (Resource.of_reg r);
      push_all_reg_srcs b rest
  | (Operand.Imm _ | Operand.Mem _ | Operand.Target _) :: rest ->
      push_all_reg_srcs b rest

(* Register sources: all operands except the last (the destination). *)
let rec push_reg_srcs_except_last b ops =
  match ops with
  | [] | [ _ ] -> ()
  | Operand.Reg r :: rest ->
      if not (Reg.is_zero r) then Scan.push b (Resource.of_reg r);
      push_reg_srcs_except_last b rest
  | (Operand.Imm _ | Operand.Mem _ | Operand.Target _) :: rest ->
      push_reg_srcs_except_last b rest

let push_pair_partner b r =
  match Reg.pair_partner r with
  | Some r2 -> Scan.push b (Resource.of_reg r2)
  | None -> ()

(* Store value sources: each non-%g0 register operand, with the pair
   partner after it for double-word stores. *)
let rec push_store_values b ~double ops =
  match ops with
  | [] -> ()
  | Operand.Reg r :: rest ->
      if not (Reg.is_zero r) then begin
        Scan.push b (Resource.of_reg r);
        if double then push_pair_partner b r
      end;
      push_store_values b ~double rest
  | (Operand.Imm _ | Operand.Mem _ | Operand.Target _) :: rest ->
      push_store_values b ~double rest

let push_mem_base b m =
  match m.Mem_expr.base with
  | Mem_expr.Breg r when not (Reg.is_zero r) -> Scan.push b (Resource.of_reg r)
  | Mem_expr.Breg _ | Mem_expr.Bsym _ -> ()

(* Base registers of memory operands (store address sources). *)
let rec push_mem_bases b ops =
  match ops with
  | [] -> ()
  | Operand.Mem m :: rest ->
      push_mem_base b m;
      push_mem_bases b rest
  | (Operand.Reg _ | Operand.Imm _ | Operand.Target _) :: rest ->
      push_mem_bases b rest

let push_mem_exprs b ~double m =
  Scan.push_mem b m 0;
  if double then Scan.push_mem b m 4

(* Load sources: per memory operand, the base register then the touched
   expression(s). *)
let rec push_load_srcs b ~double ops =
  match ops with
  | [] -> ()
  | Operand.Mem m :: rest ->
      push_mem_base b m;
      push_mem_exprs b ~double m;
      push_load_srcs b ~double rest
  | (Operand.Reg _ | Operand.Imm _ | Operand.Target _) :: rest ->
      push_load_srcs b ~double rest

(* Store defs: the touched memory expression(s). *)
let rec push_store_defs b ~double ops =
  match ops with
  | [] -> ()
  | Operand.Mem m :: rest ->
      push_mem_exprs b ~double m;
      push_store_defs b ~double rest
  | (Operand.Reg _ | Operand.Imm _ | Operand.Target _) :: rest ->
      push_store_defs b ~double rest

(* Register destination (last operand); double-word destinations include
   the pair partner. *)
let rec push_dest b ~double ops =
  match ops with
  | [] -> ()
  | [ Operand.Reg r ] ->
      if not (Reg.is_zero r) then begin
        Scan.push b (Resource.of_reg r);
        if double then push_pair_partner b r
      end
  | [ Operand.Imm _ | Operand.Mem _ | Operand.Target _ ] -> ()
  | _ :: rest -> push_dest b ~double rest

let scan_defs b t =
  b.Scan.len <- 0;
  let open Opcode in
  match t.op with
  | Cmp | Fcmps | Fcmpd ->
      (* compares have no register destination *)
      if sets_icc t.op then Scan.push b Resource.Icc;
      if sets_fcc t.op then Scan.push b Resource.Fcc
  | St | Stb | Sth | Stf | Std | Stdf ->
      (* store: [src; mem]; defines the memory expression(s) *)
      push_store_defs b ~double:(is_doubleword t.op) t.operands
  | Call | Jmpl ->
      (* conservative call effects when a call is kept inside a block *)
      Scan.push b (Resource.of_reg (Reg.Int 8));
      Scan.push b (Resource.of_reg (Reg.Int 9));
      Scan.push b (Resource.of_reg (Reg.Int 15));
      Scan.push b Resource.Icc;
      Scan.push b Resource.Fcc;
      Scan.push b Resource.Y;
      Scan.push b Resource.Mem_all
  | Ba | Bn | Be | Bne | Bg | Ble | Bge | Bl | Bgu | Bleu | Bcs | Bcc_
  | Fba | Fbe | Fbne | Fbg | Fbl | Fbge | Fble | Ret | Nop ->
      ()
  | Save | Restore -> push_dest b ~double:false t.operands
  | _ ->
      push_dest b ~double:(is_doubleword t.op) t.operands;
      if sets_icc t.op then Scan.push b Resource.Icc;
      (match t.op with
      | Smul | Umul -> Scan.push b Resource.Y
      | _ -> ())

let scan_uses b t =
  b.Scan.len <- 0;
  let open Opcode in
  match t.op with
  | Nop | Sethi | Ba | Bn | Fba | Save | Restore | Ret
  | Be | Bne | Bg | Ble | Bge | Bl | Bgu | Bleu | Bcs | Bcc_
  | Fbe | Fbne | Fbg | Fbl | Fbge | Fble ->
      if reads_icc t.op then Scan.push b Resource.Icc;
      if reads_fcc t.op then Scan.push b Resource.Fcc
  | Call | Jmpl ->
      Scan.push b (Resource.of_reg (Reg.Int 8));
      Scan.push b (Resource.of_reg (Reg.Int 9));
      Scan.push b (Resource.of_reg (Reg.Int 10));
      Scan.push b (Resource.of_reg (Reg.Int 11));
      Scan.push b (Resource.of_reg (Reg.Int 12));
      Scan.push b (Resource.of_reg (Reg.Int 13));
      Scan.push b Resource.Mem_all
  | Cmp | Fcmps | Fcmpd ->
      (* all operands are sources *)
      push_all_reg_srcs b t.operands
  | St | Stb | Sth | Stf | Std | Stdf ->
      (* store: value source(s) first, then base register(s) *)
      let double = is_doubleword t.op in
      push_store_values b ~double t.operands;
      push_mem_bases b t.operands
  | Ld | Ldd | Ldub | Ldsb | Lduh | Ldsh | Ldf | Lddf ->
      push_load_srcs b ~double:(is_doubleword t.op) t.operands
  | _ ->
      (* ALU / FP ops: all operands except the last (destination) *)
      push_reg_srcs_except_last b t.operands;
      (match t.op with
      | Sdiv | Udiv -> Scan.push b Resource.Y
      | _ -> ())

(* the list views' buffer: one per domain, read out before they return *)
let list_buf = Domain.DLS.new_key Scan.create

(** Resources defined by the instruction, in definition order (a register
    pair lists the even register first).  List view over {!scan_defs}. *)
let defs t =
  let b = Domain.DLS.get list_buf in
  scan_defs b t;
  List.init b.Scan.len (Scan.res b)

(** Resources used by the instruction, paired with the source-operand
    position (0-based) for asymmetric-bypass latency models.  List view
    over {!scan_uses} (positions are the emission indices). *)
let uses_with_pos t =
  let b = Domain.DLS.get list_buf in
  scan_uses b t;
  List.init b.Scan.len (fun i -> (Scan.res b i, i))

let uses t = List.map fst (uses_with_pos t)

(** True when the instruction both reads memory and is a load (used by the
    structural statistics for unique memory expressions). *)
let memory_expr t =
  List.find_map
    (function Operand.Mem m -> Some m | Operand.Reg _ | Operand.Imm _ | Operand.Target _ -> None)
    t.operands

let is_branch t = Opcode.is_branch t.op
let is_call t = Opcode.is_call t.op
let alters_window t = Opcode.alters_window t.op

let to_string t =
  let mnemonic =
    Opcode.to_string t.op ^ if t.annul then ",a" else ""
  in
  let ops = String.concat ", " (List.map Operand.to_string t.operands) in
  let body =
    if ops = "" then Printf.sprintf "\t%s" mnemonic
    else Printf.sprintf "\t%s %s" mnemonic ops
  in
  match t.label with
  | Some l -> Printf.sprintf "%s:\n%s" l body
  | None -> body

let pp fmt t = Format.pp_print_string fmt (to_string t)

(** Structural equality ignoring program position. *)
let equal_ignoring_index a b =
  a.op = b.op && a.annul = b.annul
  && List.length a.operands = List.length b.operands
  && List.for_all2 Operand.equal a.operands b.operands
