(** Parser for the textual SPARC-like assembly accepted by this library.

    One instruction per line; labels end with [:] and may share a line with
    an instruction; comments run from [!] or [#] to end of line.  Memory
    operands are bracketed: [\[%fp - 8\]], [\[%o1 + 4\]], [\[x\]],
    [\[lut + 12\]].  A branch annul bit is written as a [,a] suffix on the
    mnemonic ([be,a done]).

    One cursor walks the text: every line, mnemonic and operand is an
    index range [\[a, b)] over the original string, decoded in place, so
    parsing allocates only its results — the instructions, their operand
    lists, and the strings of labels, targets and symbols.  The helpers
    are top-level functions over [(s, a, b)]: a local closure would
    allocate on every call. *)

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_' || c = '.' || c = '$'

(* The characters [String.trim] strips. *)
let is_space c = c = ' ' || c = '\012' || c = '\n' || c = '\r' || c = '\t'

let sub s a b = String.sub s a (b - a)

(* First position of [c] in [s.[i .. stop-1]], or -1. *)
let rec index_in s i stop c =
  if i >= stop then -1 else if s.[i] = c then i else index_in s (i + 1) stop c

let rec skip_space s i stop =
  if i < stop && is_space s.[i] then skip_space s (i + 1) stop else i

let rec trim_end s start i =
  if i > start && is_space s.[i - 1] then trim_end s start (i - 1) else i

let rec ident_end s i stop =
  if i < stop && is_ident_char s.[i] then ident_end s (i + 1) stop else i

(* End of the mnemonic: the first space or tab, else [stop]. *)
let rec mnemonic_end s i stop =
  if i >= stop || s.[i] = ' ' || s.[i] = '\t' then i
  else mnemonic_end s (i + 1) stop

(* End of the line's code: the first [!] or [#], else [stop]. *)
let rec comment_cut s i stop =
  if i >= stop || s.[i] = '!' || s.[i] = '#' then i else comment_cut s (i + 1) stop

(* Non-negative decimal value of [s.[i .. stop-1]], or -1 on a non-digit. *)
let rec decimal s i stop acc =
  if i = stop then acc
  else
    match s.[i] with
    | '0' .. '9' as c -> decimal s (i + 1) stop ((10 * acc) + Char.code c - 48)
    | _ -> -1

(* An integer token: an optional [-] and up to 18 digits (which cannot
   overflow) are read in place; any other token — [0x10], [+4], [1_000],
   an overlong literal — means what [int_of_string_opt] makes of it. *)
let int_of_range s a b =
  let d = if a < b && s.[a] = '-' then a + 1 else a in
  let v = if d < b && b - d <= 18 then decimal s d b 0 else -1 in
  if v >= 0 then if d > a then -v else v
  else
    match int_of_string_opt (sub s a b) with
    | Some i -> i
    | None -> fail "bad integer %S" (sub s a b)

let reg_of_range s a b =
  try Reg.of_sub s a (b - a) with Not_found -> fail "unknown register %S" (sub s a b)

(* Register operands and memory bases for the 64 registers, built once:
   [Int n] at [n], [Float n] at [32 + n]. *)
let reg_slot = function
  | Reg.Int n when n >= 0 && n < 32 -> n
  | Reg.Float n when n >= 0 && n < 32 -> 32 + n
  | Reg.Int _ | Reg.Float _ -> -1

let reg_at i = if i < 32 then Reg.int i else Reg.float (i - 32)
let reg_operands = Array.init 64 (fun i -> Operand.Reg (reg_at i))
let reg_bases = Array.init 64 (fun i -> Mem_expr.Breg (reg_at i))

let base_of_range s a b =
  if a < b && s.[a] = '%' then begin
    let r = reg_of_range s a b in
    let i = reg_slot r in
    if i >= 0 then reg_bases.(i) else Mem_expr.Breg r
  end
  else if a < b && is_ident_char s.[a] then Mem_expr.Bsym (sub s a b)
  else fail "bad memory base %S" (sub s a b)

(* [%fp - 8] / [%o1 + 4] / [x] / [sym + 12], inside the brackets: the
   base is split at the first [+] (else the first [-]) past its first
   character.  The offset is decoded first, so a bad offset is reported
   before a bad base. *)
let mem_of_range s a b =
  let a = skip_space s a b in
  let b = trim_end s a b in
  let plus = index_in s a b '+' in
  let op = if plus > a then plus else index_in s a b '-' in
  if op > a then begin
    let offset = int_of_range s (skip_space s (op + 1) b) b in
    let base = base_of_range s a (trim_end s a op) in
    { Mem_expr.base; offset = (if op = plus then offset else -offset) }
  end
  else { Mem_expr.base = base_of_range s a b; offset = 0 }

(* One operand; [s.[a .. b-1]] is trimmed and non-empty. *)
let operand_of_range s a b =
  match s.[a] with
  | '[' ->
      if s.[b - 1] <> ']' then fail "unterminated memory operand %S" (sub s a b);
      Operand.Mem (mem_of_range s (a + 1) (b - 1))
  | '%' ->
      let r = reg_of_range s a b in
      let i = reg_slot r in
      if i >= 0 then reg_operands.(i) else Operand.Reg r
  | '-' | '0' .. '9' -> Operand.Imm (int_of_range s a b)
  | c when is_ident_char c -> Operand.Target (sub s a b)
  | _ -> fail "cannot parse operand %S" (sub s a b)

(* Comma-separated operands, left to right; empty ones are skipped. *)
let rec operands_of_range s a b =
  if a >= b then []
  else
    let comma = index_in s a b ',' in
    let stop = if comma < 0 then b else comma in
    let x = skip_space s a stop in
    let y = trim_end s x stop in
    if x = y then operands_of_range s (stop + 1) b
    else
      let operand = operand_of_range s x y in
      operand :: operands_of_range s (stop + 1) b

(* An instruction from its trimmed, non-empty text [s.[a .. b-1]].  The
   mnemonic ends at the first space or tab ([add\t%o1, %o2], as [cc -S]
   prints it).  A [,a] suffix sets the annul bit. *)
let insn_of_range s a b ~index ~label =
  let cut = mnemonic_end s a b in
  let comma = index_in s a cut ',' in
  let annul = comma >= 0 in
  if annul && not (cut = comma + 2 && s.[comma + 1] = 'a') then
    fail "unknown mnemonic suffix %S" (sub s (comma + 1) cut);
  let mnem_end = if annul then comma else cut in
  let op =
    try Opcode.of_sub s a (mnem_end - a)
    with Not_found -> fail "unknown mnemonic %S" (sub s a mnem_end)
  in
  let operands = operands_of_range s cut b in
  { Insn.index; op; operands; annul; label }

(** Parse a whole program.  Labels attach to the following instruction.
    Instructions are numbered consecutively from zero. *)
let parse_program text =
  let n = String.length text in
  let insns = ref [] in
  let pending_label = ref None in
  let index = ref 0 in
  let lineno = ref 1 in
  let pos = ref 0 in
  while !pos <= n do
    let line_end = index_in text !pos n '\n' in
    let line_end = if line_end < 0 then n else line_end in
    let start = skip_space text !pos line_end in
    let b = trim_end text start (comment_cut text start line_end) in
    (* a label is a non-empty run of identifier characters ending in ':' *)
    let e = ident_end text start b in
    let labelled = e > start && e < b && text.[e] = ':' in
    let a = if labelled then skip_space text (e + 1) b else start in
    if a < b then begin
      let label = if labelled then Some (sub text start e) else !pending_label in
      pending_label := None;
      let insn =
        try insn_of_range text a b ~index:!index ~label
        with Parse_error m ->
          raise (Parse_error (Printf.sprintf "line %d: %s" !lineno m))
      in
      insns := insn :: !insns;
      incr index
    end
    else if labelled then pending_label := Some (sub text start e);
    pos := line_end + 1;
    incr lineno
  done;
  List.rev !insns

let parse_program_result text =
  match parse_program text with
  | insns -> Ok insns
  | exception Parse_error m -> Error m

(** Render a program back to text; [parse_program] of the result yields the
    same instruction list (round trip, tested). *)
let print_program insns =
  String.concat "\n" (List.map Insn.to_string insns) ^ "\n"
