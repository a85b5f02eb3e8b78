(** The line-splitting assembly parser, kept verbatim as a yardstick.

    This is the [Parser] that shipped before the one-cursor rewrite:
    every line is copied by [String.split_on_char], [strip_comment],
    [String.trim] and [String.sub], operands again by [split_on_comma].
    It exists for the differential tests only, which require the cursor
    parser to return the same instruction lists and byte-identical
    error messages, except for three behaviours the cursor parser
    changes on purpose:
    - a memory base goes through [reg_of_string] unguarded, so an
      unknown base register escapes as [Invalid_argument] instead of a
      [Parse_error];
    - [reg_of_string] is the register decoder of that time, which
      decodes a negative number ([%g-1] is [Int (-1)], [%o-1] names
      [%g7]);
    - the mnemonic ends at the first space, and at the first tab only on
      a line with no space, so [add\t%o1, %o2, %o3] is rejected.
    Not for pipeline use. *)

open Ds_isa

exception Parse_error of string

(* [Reg.of_string] as it shipped with this parser, verbatim *)
let reg_of_string s =
  let fail () = invalid_arg (Printf.sprintf "Reg.of_string: %S" s) in
  let num prefix_len =
    match int_of_string_opt (String.sub s prefix_len (String.length s - prefix_len)) with
    | Some n -> n
    | None -> fail ()
  in
  if String.length s < 3 || s.[0] <> '%' then fail ()
  else
    match s with
    | "%sp" -> Reg.sp
    | "%fp" -> Reg.fp
    | _ -> (
        let n = num 2 in
        match s.[1] with
        | 'g' when n < 8 -> Reg.Int n
        | 'o' when n < 8 -> Reg.Int (8 + n)
        | 'l' when n < 8 -> Reg.Int (16 + n)
        | 'i' when n < 8 -> Reg.Int (24 + n)
        | 'f' when n < 32 -> Reg.Float n
        | 'r' when n < 32 -> Reg.Int n
        | _ -> fail ())

let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_' || c = '.' || c = '$'

let strip_comment line =
  let cut = ref (String.length line) in
  String.iteri
    (fun i c -> if (c = '!' || c = '#') && i < !cut then cut := i)
    line;
  String.sub line 0 !cut

let split_on_comma s =
  (* split on top-level commas; commas never occur inside our operand
     syntax except after the mnemonic's annul suffix, handled earlier *)
  String.split_on_char ',' s |> List.map String.trim
  |> List.filter (fun x -> x <> "")

let parse_int s =
  match int_of_string_opt s with
  | Some i -> i
  | None -> fail "bad integer %S" s

(* [%fp - 8] / [%o1 + 4] / [x] / [sym + 12] — brackets already removed. *)
let parse_mem_body s =
  let s = String.trim s in
  let split_op c =
    match String.index_opt s c with
    | Some i when i > 0 ->
        Some (String.trim (String.sub s 0 i),
              String.trim (String.sub s (i + 1) (String.length s - i - 1)))
    | Some _ | None -> None
  in
  let base_of str =
    if String.length str > 0 && str.[0] = '%' then Mem_expr.Breg (reg_of_string str)
    else if String.length str > 0 && is_ident_char str.[0] then Mem_expr.Bsym str
    else fail "bad memory base %S" str
  in
  match split_op '+' with
  | Some (b, off) -> { Mem_expr.base = base_of b; offset = parse_int off }
  | None -> (
      match split_op '-' with
      | Some (b, off) -> { Mem_expr.base = base_of b; offset = -parse_int off }
      | None -> { Mem_expr.base = base_of s; offset = 0 })

let parse_operand s =
  let s = String.trim s in
  if s = "" then fail "empty operand"
  else if s.[0] = '[' then begin
    if s.[String.length s - 1] <> ']' then fail "unterminated memory operand %S" s;
    Operand.Mem (parse_mem_body (String.sub s 1 (String.length s - 2)))
  end
  else if s.[0] = '%' then
    try Operand.Reg (reg_of_string s)
    with Invalid_argument _ -> fail "unknown register %S" s
  else if s.[0] = '-' || (s.[0] >= '0' && s.[0] <= '9') then
    Operand.Imm (parse_int s)
  else if is_ident_char s.[0] then Operand.Target s
  else fail "cannot parse operand %S" s

(* Split "mnemonic rest" and recognize the ",a" annul suffix. *)
let parse_mnemonic s =
  let s = String.trim s in
  let cut =
    match String.index_opt s ' ' with
    | Some i -> i
    | None -> ( match String.index_opt s '\t' with Some i -> i | None -> String.length s)
  in
  let mnem = String.sub s 0 cut in
  let rest = String.sub s cut (String.length s - cut) in
  let mnem, annul =
    match String.index_opt mnem ',' with
    | Some i ->
        let suffix = String.sub mnem (i + 1) (String.length mnem - i - 1) in
        if suffix = "a" then (String.sub mnem 0 i, true)
        else fail "unknown mnemonic suffix %S" suffix
    | None -> (mnem, false)
  in
  match Opcode.of_string mnem with
  | Some op -> (op, annul, rest)
  | None -> fail "unknown mnemonic %S" mnem

(* Memory operands contain no commas in our syntax, but be robust: rejoin
   bracketed segments that a comma split would have severed. *)
let parse_operands rest =
  let rest = String.trim rest in
  if rest = "" then [] else List.map parse_operand (split_on_comma rest)

(** Parse one line into an optional label and an optional instruction. *)
let parse_line line =
  let body = String.trim (strip_comment line) in
  if body = "" then (None, None)
  else
    let label, body =
      match String.index_opt body ':' with
      | Some i
        when i > 0
             && String.for_all is_ident_char (String.sub body 0 i) ->
          ( Some (String.sub body 0 i),
            String.trim (String.sub body (i + 1) (String.length body - i - 1)) )
      | Some _ | None -> (None, body)
    in
    if body = "" then (label, None)
    else
      let op, annul, rest = parse_mnemonic body in
      let operands = parse_operands rest in
      (label, Some (Insn.make ~annul op operands))

(** Parse a whole program.  Labels attach to the following instruction.
    Instructions are numbered consecutively from zero. *)
let parse_program text =
  let lines = String.split_on_char '\n' text in
  let insns = ref [] in
  let pending_label = ref None in
  let index = ref 0 in
  List.iteri
    (fun lineno line ->
      match parse_line line with
      | exception Parse_error m ->
          raise (Parse_error (Printf.sprintf "line %d: %s" (lineno + 1) m))
      | None, None -> ()
      | Some l, None -> pending_label := Some l
      | label, Some insn ->
          let label =
            match (label, !pending_label) with
            | Some l, _ -> Some l
            | None, Some l -> Some l
            | None, None -> None
          in
          pending_label := None;
          insns := { insn with Insn.label; index = !index } :: !insns;
          incr index)
    lines;
  List.rev !insns

let parse_program_result text =
  match parse_program text with
  | insns -> Ok insns
  | exception Parse_error m -> Error m
