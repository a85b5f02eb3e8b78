(** Parser for the textual SPARC-like assembly accepted by this library.

    One instruction per line; labels end with [:] and may share a line with
    an instruction; comments run from [!] or [#] to end of line.  Memory
    operands are bracketed: [\[%fp - 8\]], [\[%o1 + 4\]], [\[x\]],
    [\[lut + 12\]].  A branch annul bit is written as a [,a] suffix on the
    mnemonic ([be,a done]).

    One forward scan reads each line: the blanks before it, a label, the
    mnemonic (its [,a] suffix noted on the way), each operand up to its
    comma and the comment up to the newline.  Every mnemonic and operand
    is an index range [\[a, b)] over the original string, decoded in place
    once the scan has delimited it, so parsing allocates only its
    results — the instructions, their operand lists, and the strings of
    labels, targets and symbols; registers and small immediates come from
    tables built once.  The instruction list is built front to back
    ([@tail_mod_cons]), so no reversal follows.  The helpers are
    top-level functions over [(s, a, b)]: a local closure would allocate
    on every call. *)

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_' || c = '.' || c = '$'

(* The characters [String.trim] strips but the newline, which ends a
   line: no range the parser trims holds one. *)
let is_blank c = c = ' ' || c = '\t' || c = '\r' || c = '\012'

let sub s a b = String.sub s a (b - a)

(* First position of [c] in [s.[i .. stop-1]], or -1. *)
let rec index_in s i stop c =
  if i >= stop then -1 else if s.[i] = c then i else index_in s (i + 1) stop c

let rec skip_blank s i stop =
  if i < stop && is_blank s.[i] then skip_blank s (i + 1) stop else i

let rec trim_end s start i =
  if i > start && is_blank s.[i - 1] then trim_end s start (i - 1) else i

let rec ident_end s i stop =
  if i < stop && is_ident_char s.[i] then ident_end s (i + 1) stop else i

(* A line's code ends at its newline or at a comment's [!] or [#]. *)
let is_code_end c = c = '\n' || c = '!' || c = '#'

(* End of the line that [s.[i]] (a code end, or [n]) is on: the comment,
   if any, is skipped to its newline. *)
let rec line_end s i n = if i >= n || s.[i] = '\n' then i else line_end s (i + 1) n

(* First space, tab or code end from [i], else [n]: where a mnemonic
   stops.  [mnemonic_stop] also stops at a comma, the start of a suffix. *)
let rec word_end s i n =
  if i >= n then i
  else
    match s.[i] with
    | ' ' | '\t' | '\n' | '!' | '#' -> i
    | _ -> word_end s (i + 1) n

let rec mnemonic_stop s i n =
  if i >= n then i
  else
    match s.[i] with
    | ' ' | '\t' | '\n' | '!' | '#' | ',' -> i
    | _ -> mnemonic_stop s (i + 1) n

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

(* Immediates in [\[imm_lo, imm_hi)], built once: the generators' range
   (0 to 255), shift counts and the usual frame sizes.  The array starts
   from a constant, so building it forces no minor collection. *)
let imm_lo = -256
let imm_hi = 256

let imms =
  let t = Array.make (imm_hi - imm_lo) (Operand.Imm 0) in
  for i = 0 to imm_hi - imm_lo - 1 do
    t.(i) <- Operand.Imm (imm_lo + i)
  done;
  t

let imm v = if v >= imm_lo && v < imm_hi then imms.(v - imm_lo) else Operand.Imm v

let base_of_range s a b =
  if a < b && s.[a] = '%' then begin
    let r = reg_of_range s a b in
    let i = reg_slot r in
    if i >= 0 then reg_bases.(i) else Mem_expr.Breg r
  end
  else if a < b && is_ident_char s.[a] then Mem_expr.Bsym (sub s a b)
  else fail "bad memory base %S" (sub s a b)

let rec plus_or_minus s i b minus =
  if i >= b then minus
  else
    match s.[i] with
    | '+' -> i
    | '-' -> plus_or_minus s (i + 1) b (if minus < 0 then i else minus)
    | _ -> plus_or_minus s (i + 1) b minus

(* The first [+] past [a], else the first [-], else -1: one scan. *)
let mem_split s a b =
  if a >= b then -1
  else if s.[a] = '+' then index_in s a b '-'
  else plus_or_minus s (a + 1) b (if s.[a] = '-' then a else -1)

(* [%fp - 8] / [%o1 + 4] / [x] / [sym + 12], inside the brackets: the
   base is split at the first [+] (else the first [-]) past its first
   character.  The offset is decoded first, so a bad offset is reported
   before a bad base. *)
let mem_of_range s a b =
  let a = skip_blank s a b in
  let b = trim_end s a b in
  let op = mem_split s a b in
  if op > a then begin
    let offset = int_of_range s (skip_blank s (op + 1) b) b in
    let base = base_of_range s a (trim_end s a op) in
    { Mem_expr.base; offset = (if s.[op] = '+' then offset else -offset) }
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
  | '-' | '0' .. '9' -> imm (int_of_range s a b)
  | c when is_ident_char c -> Operand.Target (sub s a b)
  | _ -> fail "cannot parse operand %S" (sub s a b)

(* From [i], inside an operand whose last non-blank so far ends at [y]:
   the operand's delimiter (a comma, a code end or [n]); its trimmed end
   is left in [stop]. *)
let rec operand_end s i n y stop =
  if i >= n then begin
    stop := y;
    i
  end
  else
    match s.[i] with
    | ',' | '\n' | '!' | '#' ->
        stop := y;
        i
    | ' ' | '\t' | '\r' | '\012' -> operand_end s (i + 1) n y stop
    | _ -> operand_end s (i + 1) n (i + 1) stop

(* The comma-separated operands from [x], a non-blank character, to the
   end of the line's code, left to right; empty ones are skipped.  The
   code end is left in [stop]. *)
let rec operands s x n stop =
  if x >= n || is_code_end s.[x] then begin
    stop := x;
    []
  end
  else if s.[x] = ',' then operands s (skip_blank s (x + 1) n) n stop
  else
    let e = operand_end s (x + 1) n (x + 1) stop in
    let operand = operand_of_range s x !stop in
    if e < n && s.[e] = ',' then operand :: operands s (skip_blank s (e + 1) n) n stop
    else begin
      stop := e;
      [ operand ]
    end

(* The instruction whose mnemonic starts at [a], a non-blank character
   that is no code end.  The mnemonic ends at the first space or tab
   ([add\t%o1, %o2], as [cc -S] prints it), or at the code end with its
   trailing blanks trimmed; a first comma before that, at [comma], opens
   its suffix, and [,a] sets the annul bit.  [q] is where the mnemonic's
   scan stopped.  The line's code end is left in [stop]. *)
let insn_at s a comma q n ~index ~label stop =
  let k = skip_blank s q n in
  let has_operands = k < n && not (is_code_end s.[k]) in
  let cut = if has_operands then q else trim_end s a q in
  let annul = comma >= 0 in
  if annul && not (cut = comma + 2 && s.[comma + 1] = 'a') then
    fail "unknown mnemonic suffix %S" (sub s (comma + 1) cut);
  let mnem_end = if annul then comma else cut in
  let op =
    try Opcode.of_sub s a (mnem_end - a)
    with Not_found -> fail "unknown mnemonic %S" (sub s a mnem_end)
  in
  let operands = operands s k n stop in
  { Insn.index; op; operands; annul; label }

(* The instructions of the lines from [pos] on, the [lineno]th first.
   A label is a non-empty run of identifier characters ending in [:];
   on a line with no code it attaches to the next instruction. *)
let[@tail_mod_cons] rec lines s n pos lineno index pending stop =
  if pos > n then []
  else
    let start = skip_blank s pos n in
    let e = ident_end s start n in
    let labelled = e > start && e < n && s.[e] = ':' in
    let a = if labelled then skip_blank s (e + 1) n else start in
    if a >= n || is_code_end s.[a] then
      let pending = if labelled then Some (sub s start e) else pending in
      lines s n (line_end s a n + 1) (lineno + 1) index pending stop
    else
      let label = if labelled then Some (sub s start e) else pending in
      (* an unlabelled line's identifier run is the mnemonic's start *)
      let m = mnemonic_stop s (if labelled then a else e) n in
      let comma, q =
        if m < n && s.[m] = ',' then (m, word_end s (m + 1) n) else (-1, m)
      in
      let insn =
        try insn_at s a comma q n ~index ~label stop
        with Parse_error m ->
          raise (Parse_error (Printf.sprintf "line %d: %s" lineno m))
      in
      insn :: lines s n (line_end s !stop n + 1) (lineno + 1) (index + 1) None stop

(** Parse a whole program.  Labels attach to the following instruction.
    Instructions are numbered consecutively from zero. *)
let parse_program text =
  lines text (String.length text) 0 1 0 None (ref 0)

let parse_program_result text =
  match parse_program text with
  | insns -> Ok insns
  | exception Parse_error m -> Error m

(** Render a program back to text; [parse_program] of the result yields the
    same instruction list (round trip, tested). *)
let print_program insns =
  String.concat "\n" (List.map Insn.to_string insns) ^ "\n"
