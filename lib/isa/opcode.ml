(** SPARC-like opcode set.

    A compact but realistic subset of the SPARC V7 integer and FPU
    instruction set, sufficient to express the workloads the paper measures
    (system codes like grep/cccp and floating point codes like
    linpack/tomcatv/fpppp).  Each opcode carries a class used by the
    machine timing model (latencies, function units) and by the
    instruction-class heuristics (alternate type). *)

type t =
  (* integer ALU *)
  | Add | Sub | And | Or | Xor | Andn | Orn | Xnor
  | Sll | Srl | Sra
  | Addcc | Subcc | Andcc | Orcc          (* also set %icc *)
  | Smul | Umul                           (* set %y *)
  | Sdiv | Udiv                           (* read %y *)
  | Sethi | Mov | Cmp
  (* loads and stores *)
  | Ld | Ldd | Ldub | Ldsb | Lduh | Ldsh
  | Ldf | Lddf
  | St | Std | Stb | Sth | Stf | Stdf
  (* floating point *)
  | Fadds | Faddd | Fsubs | Fsubd
  | Fmuls | Fmuld | Fdivs | Fdivd
  | Fsqrts | Fsqrtd
  | Fmovs | Fnegs | Fabss
  | Fcmps | Fcmpd                          (* set %fcc *)
  | Fitos | Fitod | Fstoi | Fdtoi | Fstod | Fdtos
  (* control transfer *)
  | Ba | Bn | Be | Bne | Bg | Ble | Bge | Bl | Bgu | Bleu | Bcs | Bcc_
  | Fba | Fbe | Fbne | Fbg | Fbl | Fbge | Fble
  | Call | Jmpl | Ret
  | Save | Restore
  | Nop

(** Instruction classes drive the timing model and the "alternate type"
    superscalar heuristic. *)
type cls =
  | C_ialu        (* single-cycle integer *)
  | C_imul        (* integer multiply *)
  | C_idiv        (* integer divide *)
  | C_load
  | C_store
  | C_fpadd       (* FP add/sub/convert/compare pipeline *)
  | C_fpmul
  | C_fpdiv       (* non-pipelined divide/sqrt unit *)
  | C_fpmisc      (* moves, neg, abs *)
  | C_branch
  | C_call
  | C_window      (* SAVE / RESTORE *)
  | C_nop

let cls = function
  | Add | Sub | And | Or | Xor | Andn | Orn | Xnor | Sll | Srl | Sra
  | Addcc | Subcc | Andcc | Orcc | Sethi | Mov | Cmp -> C_ialu
  | Smul | Umul -> C_imul
  | Sdiv | Udiv -> C_idiv
  | Ld | Ldd | Ldub | Ldsb | Lduh | Ldsh | Ldf | Lddf -> C_load
  | St | Std | Stb | Sth | Stf | Stdf -> C_store
  | Fadds | Faddd | Fsubs | Fsubd | Fcmps | Fcmpd
  | Fitos | Fitod | Fstoi | Fdtoi | Fstod | Fdtos -> C_fpadd
  | Fmuls | Fmuld -> C_fpmul
  | Fdivs | Fdivd | Fsqrts | Fsqrtd -> C_fpdiv
  | Fmovs | Fnegs | Fabss -> C_fpmisc
  | Ba | Bn | Be | Bne | Bg | Ble | Bge | Bl | Bgu | Bleu | Bcs | Bcc_
  | Fba | Fbe | Fbne | Fbg | Fbl | Fbge | Fble -> C_branch
  | Call | Jmpl | Ret -> C_call
  | Save | Restore -> C_window
  | Nop -> C_nop

let is_branch op = match cls op with C_branch -> true | _ -> false
let is_call op = match op with Call | Jmpl -> true | _ -> false
let is_load op = cls op = C_load
let is_store op = cls op = C_store
let is_fp op =
  match cls op with
  | C_fpadd | C_fpmul | C_fpdiv | C_fpmisc -> true
  | C_ialu | C_imul | C_idiv | C_load | C_store | C_branch | C_call
  | C_window | C_nop -> false

(** Opcodes that write the integer condition codes. *)
let sets_icc = function
  | Addcc | Subcc | Andcc | Orcc | Cmp -> true
  | _ -> false

(** Opcodes that write the FP condition codes. *)
let sets_fcc = function Fcmps | Fcmpd -> true | _ -> false

(** Conditional branches on the integer condition codes. *)
let reads_icc = function
  | Be | Bne | Bg | Ble | Bge | Bl | Bgu | Bleu | Bcs | Bcc_ -> true
  | _ -> false

(** Conditional branches on the FP condition codes. *)
let reads_fcc = function
  | Fbe | Fbne | Fbg | Fbl | Fbge | Fble -> true
  | _ -> false

(** Double-word memory operations define/use a register pair. *)
let is_doubleword = function Ldd | Lddf | Std | Stdf -> true | _ -> false

(** Window-altering instructions: register names denote different physical
    resources on each side, so they terminate basic blocks. *)
let alters_window = function Save | Restore -> true | _ -> false

let all =
  [ Add; Sub; And; Or; Xor; Andn; Orn; Xnor; Sll; Srl; Sra;
    Addcc; Subcc; Andcc; Orcc; Smul; Umul; Sdiv; Udiv; Sethi; Mov; Cmp;
    Ld; Ldd; Ldub; Ldsb; Lduh; Ldsh; Ldf; Lddf;
    St; Std; Stb; Sth; Stf; Stdf;
    Fadds; Faddd; Fsubs; Fsubd; Fmuls; Fmuld; Fdivs; Fdivd;
    Fsqrts; Fsqrtd; Fmovs; Fnegs; Fabss; Fcmps; Fcmpd;
    Fitos; Fitod; Fstoi; Fdtoi; Fstod; Fdtos;
    Ba; Bn; Be; Bne; Bg; Ble; Bge; Bl; Bgu; Bleu; Bcs; Bcc_;
    Fba; Fbe; Fbne; Fbg; Fbl; Fbge; Fble;
    Call; Jmpl; Ret; Save; Restore; Nop ]

(* Dense index, [all]'s order: per-opcode tables are read at it.  Inlined,
   it compiles to the constructor's own number. *)
let[@inline] index = function
  | Add -> 0 | Sub -> 1 | And -> 2 | Or -> 3 | Xor -> 4 | Andn -> 5
  | Orn -> 6 | Xnor -> 7 | Sll -> 8 | Srl -> 9 | Sra -> 10 | Addcc -> 11
  | Subcc -> 12 | Andcc -> 13 | Orcc -> 14 | Smul -> 15 | Umul -> 16
  | Sdiv -> 17 | Udiv -> 18 | Sethi -> 19 | Mov -> 20 | Cmp -> 21 | Ld -> 22
  | Ldd -> 23 | Ldub -> 24 | Ldsb -> 25 | Lduh -> 26 | Ldsh -> 27
  | Ldf -> 28 | Lddf -> 29 | St -> 30 | Std -> 31 | Stb -> 32 | Sth -> 33
  | Stf -> 34 | Stdf -> 35 | Fadds -> 36 | Faddd -> 37 | Fsubs -> 38
  | Fsubd -> 39 | Fmuls -> 40 | Fmuld -> 41 | Fdivs -> 42 | Fdivd -> 43
  | Fsqrts -> 44 | Fsqrtd -> 45 | Fmovs -> 46 | Fnegs -> 47 | Fabss -> 48
  | Fcmps -> 49 | Fcmpd -> 50 | Fitos -> 51 | Fitod -> 52 | Fstoi -> 53
  | Fdtoi -> 54 | Fstod -> 55 | Fdtos -> 56 | Ba -> 57 | Bn -> 58 | Be -> 59
  | Bne -> 60 | Bg -> 61 | Ble -> 62 | Bge -> 63 | Bl -> 64 | Bgu -> 65
  | Bleu -> 66 | Bcs -> 67 | Bcc_ -> 68 | Fba -> 69 | Fbe -> 70 | Fbne -> 71
  | Fbg -> 72 | Fbl -> 73 | Fbge -> 74 | Fble -> 75 | Call -> 76
  | Jmpl -> 77 | Ret -> 78 | Save -> 79 | Restore -> 80 | Nop -> 81

let count = List.length all

let to_string = function
  | Add -> "add" | Sub -> "sub" | And -> "and" | Or -> "or" | Xor -> "xor"
  | Andn -> "andn" | Orn -> "orn" | Xnor -> "xnor"
  | Sll -> "sll" | Srl -> "srl" | Sra -> "sra"
  | Addcc -> "addcc" | Subcc -> "subcc" | Andcc -> "andcc" | Orcc -> "orcc"
  | Smul -> "smul" | Umul -> "umul" | Sdiv -> "sdiv" | Udiv -> "udiv"
  | Sethi -> "sethi" | Mov -> "mov" | Cmp -> "cmp"
  | Ld -> "ld" | Ldd -> "ldd" | Ldub -> "ldub" | Ldsb -> "ldsb"
  | Lduh -> "lduh" | Ldsh -> "ldsh" | Ldf -> "ldf" | Lddf -> "lddf"
  | St -> "st" | Std -> "std" | Stb -> "stb" | Sth -> "sth"
  | Stf -> "stf" | Stdf -> "stdf"
  | Fadds -> "fadds" | Faddd -> "faddd" | Fsubs -> "fsubs" | Fsubd -> "fsubd"
  | Fmuls -> "fmuls" | Fmuld -> "fmuld" | Fdivs -> "fdivs" | Fdivd -> "fdivd"
  | Fsqrts -> "fsqrts" | Fsqrtd -> "fsqrtd"
  | Fmovs -> "fmovs" | Fnegs -> "fnegs" | Fabss -> "fabss"
  | Fcmps -> "fcmps" | Fcmpd -> "fcmpd"
  | Fitos -> "fitos" | Fitod -> "fitod" | Fstoi -> "fstoi" | Fdtoi -> "fdtoi"
  | Fstod -> "fstod" | Fdtos -> "fdtos"
  | Ba -> "ba" | Bn -> "bn" | Be -> "be" | Bne -> "bne" | Bg -> "bg"
  | Ble -> "ble" | Bge -> "bge" | Bl -> "bl" | Bgu -> "bgu" | Bleu -> "bleu"
  | Bcs -> "bcs" | Bcc_ -> "bcc"
  | Fba -> "fba" | Fbe -> "fbe" | Fbne -> "fbne" | Fbg -> "fbg"
  | Fbl -> "fbl" | Fbge -> "fbge" | Fble -> "fble"
  | Call -> "call" | Jmpl -> "jmpl" | Ret -> "ret"
  | Save -> "save" | Restore -> "restore" | Nop -> "nop"

(* Name lookup without a lowercase copy: the opcodes are bucketed by
   (name length, first letter), and a candidate's name is compared in
   place against the text, ignoring ASCII case. *)
let max_name =
  List.fold_left (fun m op -> max m (String.length (to_string op))) 0 all

let bucket len c = (len * 26) + Char.code c - Char.code 'a'

let buckets =
  let b = Array.make (bucket (max_name + 1) 'a') [||] in
  List.iter
    (fun op ->
      let name = to_string op in
      let k = bucket (String.length name) name.[0] in
      b.(k) <- Array.append b.(k) [| op |])
    all;
  b

let rec same_name s pos name j =
  j = String.length name
  || Char.lowercase_ascii s.[pos + j] = name.[j] && same_name s pos name (j + 1)

let rec find_in cands s pos k =
  if k = Array.length cands then raise Not_found
  else if same_name s pos (to_string cands.(k)) 0 then cands.(k)
  else find_in cands s pos (k + 1)

let of_sub s pos len =
  let c = if len > 0 then Char.lowercase_ascii s.[pos] else ' ' in
  if len > max_name || c < 'a' || c > 'z' then raise Not_found;
  find_in buckets.(bucket len c) s pos 0

let of_string s =
  match of_sub s 0 (String.length s) with
  | op -> Some op
  | exception Not_found -> None

let pp fmt op = Format.pp_print_string fmt (to_string op)
