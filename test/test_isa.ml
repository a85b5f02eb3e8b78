(** ISA tests: registers, memory expressions, resources, opcodes,
    def/use extraction and the parser/printer round trip. *)

open Dagsched
open Helpers

(* ------------------------------------------------------------------ *)
(* registers *)

let test_reg_names () =
  check_string "g0" "%g0" (Reg.to_string (Reg.int 0));
  check_string "o3" "%o3" (Reg.to_string (Reg.int 11));
  check_string "l5" "%l5" (Reg.to_string (Reg.int 21));
  check_string "i2" "%i2" (Reg.to_string (Reg.int 26));
  check_string "sp alias" "%sp" (Reg.to_string (Reg.int 14));
  check_string "fp alias" "%fp" (Reg.to_string (Reg.int 30));
  check_string "f17" "%f17" (Reg.to_string (Reg.float 17))

let test_reg_roundtrip () =
  for i = 0 to 31 do
    let r = Reg.int i in
    check_bool "int round trip" true (Reg.equal r (Reg.of_string (Reg.to_string r)));
    let f = Reg.float i in
    check_bool "float round trip" true (Reg.equal f (Reg.of_string (Reg.to_string f)))
  done

let test_reg_special () =
  check_bool "g0 is zero" true (Reg.is_zero Reg.g0);
  check_bool "o1 not zero" false (Reg.is_zero (Reg.int 9));
  check_bool "sp stack base" true (Reg.is_stack_base Reg.sp);
  check_bool "fp stack base" true (Reg.is_stack_base Reg.fp);
  check_bool "o0 not stack base" false (Reg.is_stack_base (Reg.int 8))

let test_reg_pairs () =
  (match Reg.pair_partner (Reg.float 2) with
  | Some r -> check_string "f2 partner" "%f3" (Reg.to_string r)
  | None -> Alcotest.fail "f2 should have a partner");
  (match Reg.pair_partner (Reg.int 8) with
  | Some r -> check_string "o0 partner" "%o1" (Reg.to_string r)
  | None -> Alcotest.fail "o0 should have a partner");
  check_bool "odd reg has no partner" true (Reg.pair_partner (Reg.float 3) = None)

(* ------------------------------------------------------------------ *)
(* memory expressions *)

let test_mem_expr_strings () =
  check_string "fp-8" "[%fp - 8]"
    (Mem_expr.to_string (Mem_expr.make_reg ~offset:(-8) Reg.fp));
  check_string "o1+4" "[%o1 + 4]"
    (Mem_expr.to_string (Mem_expr.make_reg ~offset:4 (Reg.int 9)));
  check_string "sym" "[x]" (Mem_expr.to_string (Mem_expr.make_sym "x"));
  check_string "sym+12" "[tbl + 12]"
    (Mem_expr.to_string (Mem_expr.make_sym ~offset:12 "tbl"))

let test_storage_classes () =
  let stack = Mem_expr.make_reg ~offset:(-8) Reg.fp in
  let global = Mem_expr.make_sym "x" in
  let pointer = Mem_expr.make_reg ~offset:4 (Reg.int 9) in
  check_bool "stack" true (Mem_expr.storage_class stack = Mem_expr.Stack);
  check_bool "global" true (Mem_expr.storage_class global = Mem_expr.Global);
  check_bool "pointer unknown" true
    (Mem_expr.storage_class pointer = Mem_expr.Unknown)

let test_same_base_different_offset () =
  let a = Mem_expr.make_reg ~offset:(-8) Reg.fp in
  let b = Mem_expr.make_reg ~offset:(-16) Reg.fp in
  check_bool "same base diff offset" true (Mem_expr.same_base_different_offset a b);
  check_bool "not for same expr" false (Mem_expr.same_base_different_offset a a)

(* ------------------------------------------------------------------ *)
(* opcodes *)

let test_opcode_roundtrip () =
  List.iter
    (fun op ->
      match Opcode.of_string (Opcode.to_string op) with
      | Some op' -> check_bool (Opcode.to_string op) true (op = op')
      | None -> Alcotest.failf "opcode %s did not round trip" (Opcode.to_string op))
    Opcode.all

let test_opcode_classes () =
  check_bool "add is ialu" true (Opcode.cls Opcode.Add = Opcode.C_ialu);
  check_bool "ld is load" true (Opcode.is_load Opcode.Ld);
  check_bool "stdf is store" true (Opcode.is_store Opcode.Stdf);
  check_bool "fdivd is fpdiv" true (Opcode.cls Opcode.Fdivd = Opcode.C_fpdiv);
  check_bool "be is branch" true (Opcode.is_branch Opcode.Be);
  check_bool "call is call" true (Opcode.is_call Opcode.Call);
  check_bool "save alters window" true (Opcode.alters_window Opcode.Save);
  check_bool "cmp sets icc" true (Opcode.sets_icc Opcode.Cmp);
  check_bool "fcmpd sets fcc" true (Opcode.sets_fcc Opcode.Fcmpd);
  check_bool "bne reads icc" true (Opcode.reads_icc Opcode.Bne);
  check_bool "fble reads fcc" true (Opcode.reads_fcc Opcode.Fble);
  check_bool "lddf doubleword" true (Opcode.is_doubleword Opcode.Lddf)

(* ------------------------------------------------------------------ *)
(* def/use extraction *)

let res_strings rs = List.map Resource.to_string rs |> List.sort compare

let test_alu_defs_uses () =
  let insn = List.hd (parse "add %o1, %o2, %o3") in
  Alcotest.(check (list string)) "defs" [ "%o3" ] (res_strings (Insn.defs insn));
  Alcotest.(check (list string)) "uses" [ "%o1"; "%o2" ] (res_strings (Insn.uses insn))

let test_g0_not_a_resource () =
  let insn = List.hd (parse "add %g0, %o2, %g0") in
  Alcotest.(check (list string)) "defs" [] (res_strings (Insn.defs insn));
  Alcotest.(check (list string)) "uses" [ "%o2" ] (res_strings (Insn.uses insn))

let test_cc_defs_uses () =
  let cmp = List.hd (parse "cmp %o1, %o2") in
  check_bool "cmp defines icc" true (List.mem Resource.Icc (Insn.defs cmp));
  check_bool "cmp has no reg defs" true
    (not (List.exists Resource.is_register (Insn.defs cmp)));
  let subcc = List.hd (parse "subcc %o1, %o2, %o3") in
  check_bool "subcc defines icc" true (List.mem Resource.Icc (Insn.defs subcc));
  check_bool "subcc defines o3" true
    (List.mem (Resource.R (Reg.int 11)) (Insn.defs subcc));
  let be = List.hd (parse "be target") in
  check_bool "be uses icc" true (List.mem Resource.Icc (Insn.uses be));
  let fcmp = List.hd (parse "fcmpd %f0, %f2") in
  check_bool "fcmpd defines fcc" true (List.mem Resource.Fcc (Insn.defs fcmp));
  let fbe = List.hd (parse "fbe target") in
  check_bool "fbe uses fcc" true (List.mem Resource.Fcc (Insn.uses fbe))

let test_y_register () =
  let smul = List.hd (parse "smul %o1, %o2, %o3") in
  check_bool "smul defines y" true (List.mem Resource.Y (Insn.defs smul));
  let sdiv = List.hd (parse "sdiv %o1, %o2, %o3") in
  check_bool "sdiv uses y" true (List.mem Resource.Y (Insn.uses sdiv))

let test_load_defs_uses () =
  let ld = List.hd (parse "ld [%fp - 8], %o1") in
  check_bool "ld defines o1" true (List.mem (Resource.R (Reg.int 9)) (Insn.defs ld));
  check_bool "ld uses fp" true (List.mem (Resource.R Reg.fp) (Insn.uses ld));
  check_bool "ld uses mem expr" true
    (List.exists (function Resource.Mem _ -> true | _ -> false) (Insn.uses ld))

let test_store_defs_uses () =
  let st = List.hd (parse "st %o2, [%o1 + 4]") in
  check_bool "st defines mem" true
    (List.exists (function Resource.Mem _ -> true | _ -> false) (Insn.defs st));
  check_bool "st uses o2" true (List.mem (Resource.R (Reg.int 10)) (Insn.uses st));
  check_bool "st uses base o1" true (List.mem (Resource.R (Reg.int 9)) (Insn.uses st));
  check_bool "st defines no register" true
    (not (List.exists Resource.is_register (Insn.defs st)))

let test_doubleword_load_pair () =
  let lddf = List.hd (parse "lddf [%fp - 16], %f4") in
  check_bool "defines f4" true (List.mem (Resource.R (Reg.float 4)) (Insn.defs lddf));
  check_bool "defines f5 (pair)" true
    (List.mem (Resource.R (Reg.float 5)) (Insn.defs lddf));
  (* double-word reference touches the expression and the next word *)
  let mems =
    List.filter (function Resource.Mem _ -> true | _ -> false) (Insn.uses lddf)
  in
  check_int "two memory words" 2 (List.length mems)

let test_doubleword_store_pair () =
  let stdf = List.hd (parse "stdf %f6, [%fp - 24]") in
  check_bool "uses f6" true (List.mem (Resource.R (Reg.float 6)) (Insn.uses stdf));
  check_bool "uses f7 (pair)" true (List.mem (Resource.R (Reg.float 7)) (Insn.uses stdf));
  let mems =
    List.filter (function Resource.Mem _ -> true | _ -> false) (Insn.defs stdf)
  in
  check_int "defines two memory words" 2 (List.length mems)

let test_use_positions () =
  let insn = List.hd (parse "fsubd %f0, %f2, %f4") in
  let positions = Insn.uses_with_pos insn in
  check_int "two sources" 2 (List.length positions);
  check_bool "first source position 0" true
    (List.exists (fun (r, p) -> Resource.equal r (Resource.R (Reg.float 0)) && p = 0) positions);
  check_bool "second source position 1" true
    (List.exists (fun (r, p) -> Resource.equal r (Resource.R (Reg.float 2)) && p = 1) positions)

let test_call_conservative () =
  let call = List.hd (parse "call foo") in
  check_bool "call defines memory" true (List.mem Resource.Mem_all (Insn.defs call));
  check_bool "call uses memory" true (List.mem Resource.Mem_all (Insn.uses call));
  check_bool "call defines o7" true (List.mem (Resource.R (Reg.int 15)) (Insn.defs call))

(* ------------------------------------------------------------------ *)
(* parser / printer *)

let test_parse_simple () =
  let insns = parse "add %o1, %o2, %o3\nld [%fp - 8], %o1" in
  check_int "two insns" 2 (List.length insns);
  check_bool "first is add" true ((List.hd insns).Insn.op = Opcode.Add)

let test_parse_labels_and_comments () =
  let insns = parse "loop:\n  add %o1, 1, %o1 ! increment\n  bne loop # again" in
  check_int "two insns" 2 (List.length insns);
  check_bool "label attached" true ((List.hd insns).Insn.label = Some "loop")

let test_parse_annul () =
  let insns = parse "be,a done" in
  check_bool "annul bit" true (List.hd insns).Insn.annul

let test_parse_memory_forms () =
  let forms =
    [ "ld [%fp - 8], %o1"; "ld [%o1 + 4], %o2"; "ld [x], %o3";
      "ld [tbl + 12], %o4"; "ld [%sp], %o5" ]
  in
  List.iter
    (fun s ->
      let insn = List.hd (parse s) in
      check_bool s true (Insn.memory_expr insn <> None))
    forms

let test_parse_errors () =
  let bad =
    [ "frobnicate %o1"; "add %q1, %o2, %o3"; "ld [%fp - 8, %o1";
      "ld [%q1 + 4], %o1" ]
  in
  List.iter
    (fun s ->
      match Parser.parse_program_result s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected parse error for %S" s)
    bad;
  (* an unknown register is the same typed, line-numbered error as an
     operand and as a memory base *)
  List.iter
    (fun s ->
      match Parser.parse_program_result s with
      | Error m -> check_string s "line 2: unknown register \"%q1\"" m
      | Ok _ -> Alcotest.failf "expected parse error for %S" s)
    [ "nop\nadd %q1, %o2, %o3"; "nop\nld [%q1 + 4], %o1" ]

let test_roundtrip_program () =
  let text = "start:\n\tld [%fp - 8], %o1\n\tadd %o1, 4, %o2\n\tcmp %o2, 10\n\tbe,a start\n\tnop\n" in
  let insns = parse text in
  let printed = Parser.print_program insns in
  let reparsed = parse printed in
  check_int "same length" (List.length insns) (List.length reparsed);
  List.iter2
    (fun a b ->
      check_bool "equal insns" true (Insn.equal_ignoring_index a b);
      check_bool "equal labels" true (a.Insn.label = b.Insn.label))
    insns reparsed

(* ------------------------------------------------------------------ *)
(* cursor parser against the line-splitting yardstick *)

type outcome = Parsed of Insn.t list | Failed of string | Escaped of string

let legacy_outcome text =
  match Parser_legacy.parse_program_result text with
  | Ok insns -> Parsed insns
  | Error m -> Failed m
  | exception Invalid_argument m -> Escaped m

let cursor_outcome text =
  match Parser.parse_program_result text with
  | Ok insns -> Parsed insns
  | Error m -> Failed m

let escaped_prefix = "Reg.of_string: "

(* Same instruction list, or byte-identical error.  The first intended
   divergence: an unknown memory-base register escaped the yardstick as
   [Invalid_argument "Reg.of_string: NAME"], and the cursor parser
   reports it as [line N: unknown register NAME]. *)
let check_same_outcome text =
  match (legacy_outcome text, cursor_outcome text) with
  | Parsed a, Parsed b ->
      if a <> b then Alcotest.failf "%S: instruction lists differ" text
  | Failed a, Failed b -> check_string (Printf.sprintf "error for %S" text) a b
  | Escaped m, Failed b
    when String.starts_with ~prefix:escaped_prefix m
         && String.starts_with ~prefix:"line " b
         && String.ends_with
              ~suffix:
                (": unknown register "
                ^ String.sub m (String.length escaped_prefix)
                    (String.length m - String.length escaped_prefix))
              b ->
      ()
  | (Parsed _ | Failed _ | Escaped _), (Parsed _ | Failed _ | Escaped _) ->
      Alcotest.failf "%S: the parsers disagree" text

(* The other two intended divergences are found first and asserted on
   both parsers; the text before them is compared as above.
   - A negative register number: the yardstick's [Reg.of_string]
     decodes [%g-1]; the cursor parser stops there with
     [line N: unknown register NAME].
   - A tab ending the mnemonic on a line that also has a space: the
     yardstick cuts the mnemonic at the space and rejects the line; the
     cursor parser reads the line as if that tab were a space. *)

(* the first [l - 1] lines of [text] *)
let lines_before text l =
  let rec stop i k =
    if k = 0 then i
    else
      match String.index_from_opt text i '\n' with
      | Some j -> stop (j + 1) (k - 1)
      | None -> String.length text
  in
  String.sub text 0 (stop 0 (l - 1))

(* [Some (line, name)] when the cursor parser stopped at a register of
   a known class with a negative number *)
let negative_register = function
  | Failed m -> (
      match Scanf.sscanf m "line %d: unknown register %S%!" (fun l r -> (l, r)) with
      | l, name
        when String.length name > 2
             && String.contains "golifr" name.[1]
             && Option.fold ~none:false ~some:(fun n -> n < 0)
                  (int_of_string_opt (String.sub name 2 (String.length name - 2))) ->
          Some (l, name)
      | _ -> None
      | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> None)
  | Parsed _ | Escaped _ -> None

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_' || c = '.' || c = '$'

(* A line whose instruction text (comment cut, trimmed, label removed,
   as the yardstick splits it) has a tab before its first space: that
   line with the tab made a space, without its comment. *)
let tab_rewrite line =
  let code =
    match String.index_opt line '!', String.index_opt line '#' with
    | Some i, Some j -> String.sub line 0 (min i j)
    | Some i, None | None, Some i -> String.sub line 0 i
    | None, None -> line
  in
  let code = String.trim code in
  let label, body =
    match String.index_opt code ':' with
    | Some i when i > 0 && String.for_all is_ident_char (String.sub code 0 i) ->
        (String.sub code 0 (i + 1) ^ " ",
         String.trim (String.sub code (i + 1) (String.length code - i - 1)))
    | Some _ | None -> ("", code)
  in
  match (String.index_opt body ' ', String.index_opt body '\t') with
  | Some sp, Some tab when tab < sp ->
      Some (label ^ String.mapi (fun i c -> if i = tab then ' ' else c) body)
  | _ -> None

let same_outcome a b =
  match (a, b) with
  | Parsed a, Parsed b -> a = b
  | Failed a, Failed b -> String.equal a b
  | _ -> false

let rec check_same_parse text =
  let tab_line =
    List.find_mapi
      (fun i line -> Option.map (fun r -> (i + 1, line, r)) (tab_rewrite line))
      (String.split_on_char '\n' text)
  in
  let head =
    match tab_line with Some (l, _, _) -> lines_before text l | None -> text
  in
  match negative_register (cursor_outcome head) with
  | Some (l, name) -> (
      check_same_outcome (lines_before head l);
      match legacy_outcome ("add " ^ name ^ ", %o1, %o2") with
      | Parsed _ -> ()
      | Failed _ | Escaped _ ->
          Alcotest.failf "%S: the yardstick rejects %s" text name)
  | None -> (
      check_same_outcome head;
      match (tab_line, cursor_outcome head) with
      | Some (_, line, rewritten), Parsed _ ->
          (match legacy_outcome line with
          | Failed m when String.starts_with ~prefix:"line 1: unknown mnemonic" m -> ()
          | _ -> Alcotest.failf "%S: the yardstick accepts %S" text line);
          if not (same_outcome (cursor_outcome line) (cursor_outcome rewritten))
          then Alcotest.failf "%S: a tab ends the mnemonic unlike a space" line;
          check_same_parse rewritten
      | _ -> ())

let parser_edge_cases =
  [ ""; "\n"; "\n\n\n";
    (* line endings, tabs, form feeds *)
    "add %o1, %o2, %o3\r\nld [%fp - 8], %o1\r\n"; "nop\r"; "\r\n\r\n";
    "\tadd\t%o1,%o2,%o3"; "\tld\t[%fp-8],\t%o1"; "add\t%o1, %o2, %o3";
    "ld\t[%fp - 8], %o1"; "\012nop\012"; "add %o1,\r%o2, %o3";
    (* comments *)
    "add %o1, %o2, %o3 ! sum"; "# whole line"; "nop#x"; "! only";
    "ld [x], %o1 ! [%fp"; "loop: ! label and comment\nnop";
    (* labels *)
    "loop:"; "loop:\n  add %o1, 1, %o1"; "loop: add %o1, 1, %o1";
    "loop:nop"; "a:\nb:\nnop"; "a:\nc: nop"; "nop\nend:"; "a b: nop";
    ":"; ": nop"; "1abc: nop"; ".L1:nop"; "$x_1.y: nop"; "a:b: nop";
    "lab:   \t  "; "x:\n\n! gap\nnop";
    (* annul suffix *)
    "be,a done"; "BE,a done"; "be,A done"; "be,an done"; "be, done";
    ",a done"; "be,a,a x"; "be,a"; "ba,a\tdone";
    (* mnemonic case *)
    "ADD %o1, %o2, %o3"; "Ld [%fp - 8], %o1"; "NOP"; "FaDdD %f0, %f2, %f4";
    "nopx"; "fsqrtdx %f0, %f2"; "a"; "ldx [x], %o1";
    (* registers *)
    "add %r5, %r31, %r0"; "add %r32, %o1, %o2"; "ld [%sp], %o1";
    "st %o1, [%fp + 4]"; "add %SP, %o1, %o2"; "add %g8, %o1, %o2";
    "add %o0x1, %o1, %o2"; "add %g-1, %o1, %o2"; "fmovs %f31, %f0";
    "fmovs %f32, %f0"; "add %q1, %o2, %o3"; "add %, %o1, %o2";
    "add %g, %o1, %o2"; "add %g01, %o1, %o2"; "add %l7, %i7, %g7";
    (* memory operands *)
    "ld [%fp-8], %o1"; "ld [ %fp - 8 ], %o1"; "ld [%fp+-8], %o1";
    "ld [%fp - -8], %o1"; "ld [x], %o1"; "ld [lut + 12], %o1";
    "ld [+4], %o1"; "ld [-4], %o1"; "ld [%fp + 0x10], %o1"; "ld [], %o1";
    "ld [ ], %o1"; "ld [foo bar], %o1"; "ld [%fp + x], %o1";
    "ld [?x + y], %o1"; "ld [%q1 + y], %o1"; "ld [x-y], %o1";
    "ld [%fp +], %o1"; "ld [x+4+4], %o1"; "ldd [%o2 + 8], %o4";
    "ld [a]b], %o1"; "ld [?], %o1";
    (* the intended divergence: unknown registers as memory bases *)
    "ld [%q1 + 4], %o1"; "ld [%q1], %o1"; "ld [%fp - 8 + 4], %o1";
    "nop\nst %o1, [%g9 - 4]";
    (* integers *)
    "add %o1, 0x10, %o2"; "add %o1, +4, %o2"; "add %o1, 1_000, %o2";
    "add %o1, -0, %o2"; "add %o1, 99999999999999999999, %o2";
    "add %o1, 123456789012345678, %o2"; "add %o1, 1234567890123456789, %o2";
    "add %o1, -4611686018427387904, %o2"; "add %o1, 4611686018427387904, %o2";
    "add %o1, -, %o2"; "add %o1, 0b101, %o2"; "add %o1, -0x10, %o2";
    "add %o1, 12ab, %o2"; "add %o1, 007, %o2"; "add %o1, 4 4, %o2";
    (* operand lists *)
    "add %o1,, %o2, %o3"; "add %o1, %o2, %o3,"; "add , %o1"; "nop ,";
    "nop , , "; "call foo"; "call foo bar"; "add %o1, ?"; "call _f.x$";
    "ret"; "save %sp, -96, %sp";
    (* unterminated brackets *)
    "ld [%fp - 8, %o1"; "ld [, %o1"; "ld [%fp - 8"; "ld [";
    (* error line numbers *)
    "nop\nnop\nfrobnicate %o1"; "nop\n\n\nadd %o1, %o2, ?" ]

let test_parser_edge_cases () = List.iter check_same_parse parser_edge_cases

let test_parser_divergence () =
  let text = "nop\nld [%q1 + 4], %o1" in
  (match legacy_outcome text with
  | Escaped m -> check_string "yardstick escapes" "Reg.of_string: \"%q1\"" m
  | Parsed _ | Failed _ -> Alcotest.fail "yardstick no longer escapes");
  match cursor_outcome text with
  | Failed m -> check_string "typed error" "line 2: unknown register \"%q1\"" m
  | Parsed _ | Escaped _ -> Alcotest.fail "expected a parse error"

(* a negative register number: the yardstick decodes it ([%o-1] even
   names [%g7]), the cursor parser and [Reg] reject it *)
let test_parser_negative_register () =
  List.iter
    (fun (text, name) ->
      (match legacy_outcome text with
      | Parsed _ -> ()
      | Failed _ | Escaped _ -> Alcotest.failf "yardstick rejects %S" text);
      (match cursor_outcome text with
      | Failed m ->
          check_string text (Printf.sprintf "line 1: unknown register %S" name) m
      | Parsed _ | Escaped _ -> Alcotest.failf "%S parsed" text);
      match Reg.of_string name with
      | _ -> Alcotest.failf "Reg.of_string %S decoded" name
      | exception Invalid_argument _ -> ())
    [ ("add %g-1, %o1, %o2", "%g-1"); ("add %o-1, %o1, %o2", "%o-1");
      ("fmovs %f-3, %f0", "%f-3"); ("ld [%l-20 + 4], %o1", "%l-20");
      ("add %r-0x1, %o1, %o2", "%r-0x1") ];
  match Parser_legacy.parse_program "add %o-1, %o1, %o2" with
  | [ { Insn.operands = Operand.Reg r :: _; _ } ] ->
      check_bool "yardstick: %o-1 names %g7" true (Reg.equal r (Reg.int 7))
  | _ -> Alcotest.fail "yardstick: unexpected parse of %o-1"

(* a tab ends the mnemonic even on a line with a space, as [cc -S]
   prints it: the yardstick rejects such a line, the cursor parser reads
   it as the same line with a space *)
let test_parser_tab_mnemonic () =
  List.iter
    (fun (text, spaced) ->
      (match legacy_outcome text with
      | Failed m when String.starts_with ~prefix:"line 1: unknown mnemonic" m -> ()
      | _ -> Alcotest.failf "yardstick accepts %S" text);
      match (cursor_outcome text, cursor_outcome spaced) with
      | Parsed a, Parsed b ->
          check_bool (Printf.sprintf "%S parses as %S" text spaced) true (a = b)
      | _ -> Alcotest.failf "%S or %S failed" text spaced)
    [ ("add\t%o1, %o2, %o3", "add %o1, %o2, %o3");
      ("\tld\t[%fp - 8], %o1", "ld [%fp - 8], %o1");
      ("loop:\tld\t[%fp - 8], %o1 ! back", "loop: ld [%fp - 8], %o1");
      ("\tst\t%o1, [%fp + 4]\n\tfaddd\t%f0, %f2, %f4",
       "st %o1, [%fp + 4]\nfaddd %f0, %f2, %f4") ]

let program_of_block (b : Block.t) =
  Printf.sprintf "B%d:\n%s" b.Block.id
    (Parser.print_program (Array.to_list b.Block.insns))

let prop_parser_generated seed =
  check_same_parse (program_of_block (random_block seed));
  true

(* A generated program with a few random byte edits drawn from the
   parser's syntax characters, so the error paths get compared too. *)
let mutate seed text =
  let rng = Prng.create (seed + 1) in
  let alphabet = " \t\r,[]%+-!#:a0x9fog_" in
  let buf = Buffer.create (String.length text + 8) in
  Buffer.add_string buf text;
  for _ = 0 to Prng.int rng 4 do
    let s = Buffer.contents buf in
    let i = Prng.int rng (String.length s + 1) in
    let c = alphabet.[Prng.int rng (String.length alphabet)] in
    let keep = if Prng.int rng 2 = 0 then i else min (i + 1) (String.length s) in
    Buffer.clear buf;
    Buffer.add_string buf (String.sub s 0 i);
    Buffer.add_char buf c;
    Buffer.add_string buf (String.sub s keep (String.length s - keep))
  done;
  Buffer.contents buf

let prop_parser_mutated seed =
  check_same_parse (mutate seed (program_of_block (random_block seed)));
  true

(* The Table-3 corpus rendered as [schedtool gen] prints it: one label
   per block. *)
let table3_texts =
  lazy
    (List.map
       (fun (_, blocks) -> String.concat "" (List.map program_of_block blocks))
       (Profiles.corpus Profiles.benchmarks))

let test_parser_table3_differential () =
  List.iter check_same_parse (Lazy.force table3_texts)

(* Allocation guard for the cursor parser over the rendered Table-3
   corpus, counted with [Gc.minor_words] on this domain — deterministic
   for a fixed corpus.  Measured: 22.5 words/insn (the instruction
   records and list cells, operand lists, memory expressions,
   immediates and label strings), against 120.7 for the line-splitting
   parser, which copied every line, operand and mnemonic.  The budget
   is the measured value x 1.15, the benchmark's minor-words bound. *)
let test_parser_allocation_budget () =
  let budget = 25.9 in
  let texts = Lazy.force table3_texts in
  let insns = ref 0 in
  let m0 = Gc.minor_words () in
  List.iter (fun t -> insns := !insns + List.length (Parser.parse_program t)) texts;
  let per_insn = (Gc.minor_words () -. m0) /. float_of_int !insns in
  if per_insn > budget then
    Alcotest.failf "parse_program allocated %.1f words/insn (budget %.1f)"
      per_insn budget

(* ------------------------------------------------------------------ *)
(* def/use extraction against the pre-scan list-based specification *)

(* The list-based [defs]/[uses_with_pos] that shipped before the reusable
   scan buffer, copied verbatim as an executable specification.  The
   current implementations are views over [scan_defs]/[scan_uses], so
   this differential pins the scan rewrite to the historical semantics
   independently of the DAG layer (whose own yardstick, [Dag_legacy],
   shares the new [Insn] and would mask a common regression). *)
module Spec = struct
  let reg_res acc = function
    | Operand.Reg r when not (Reg.is_zero r) -> Resource.R r :: acc
    | Operand.Reg _ | Operand.Imm _ | Operand.Mem _ | Operand.Target _ -> acc

  let mem_res ~double m =
    let second = { m with Mem_expr.offset = m.Mem_expr.offset + 4 } in
    if double then [ Resource.Mem m; Resource.Mem second ] else [ Resource.Mem m ]

  let mem_base_use acc = function
    | { Mem_expr.base = Mem_expr.Breg r; _ } when not (Reg.is_zero r) ->
        Resource.R r :: acc
    | { Mem_expr.base = Mem_expr.Breg _ | Mem_expr.Bsym _; _ } -> acc

  let split_last xs =
    match List.rev xs with
    | [] -> (None, [])
    | last :: rest -> (Some last, List.rev rest)

  let dest_resources ~double (t : Insn.t) =
    match split_last t.operands with
    | Some (Operand.Reg r), _ when not (Reg.is_zero r) ->
        let base = [ Resource.R r ] in
        if double then
          match Reg.pair_partner r with
          | Some r2 -> base @ [ Resource.R r2 ]
          | None -> base
        else base
    | _ -> []

  let source_operands (t : Insn.t) =
    match split_last t.operands with _, srcs -> srcs

  let defs (t : Insn.t) =
    let open Opcode in
    let cc = if sets_icc t.op then [ Resource.Icc ] else [] in
    let fcc = if sets_fcc t.op then [ Resource.Fcc ] else [] in
    let y = match t.op with Smul | Umul -> [ Resource.Y ] | _ -> [] in
    match t.op with
    | Cmp | Fcmps | Fcmpd -> cc @ fcc
    | St | Stb | Sth | Stf | Std | Stdf ->
        let double = is_doubleword t.op in
        List.concat_map
          (function
            | Operand.Mem m -> mem_res ~double m
            | Operand.Reg _ | Operand.Imm _ | Operand.Target _ -> [])
          t.operands
    | Call | Jmpl ->
        [ Resource.R (Reg.int 8); Resource.R (Reg.int 9);
          Resource.R (Reg.int 15); Resource.Icc; Resource.Fcc; Resource.Y;
          Resource.Mem_all ]
    | Ba | Bn | Be | Bne | Bg | Ble | Bge | Bl | Bgu | Bleu | Bcs | Bcc_
    | Fba | Fbe | Fbne | Fbg | Fbl | Fbge | Fble | Ret | Nop ->
        []
    | Save | Restore -> dest_resources ~double:false t
    | _ ->
        let double = is_doubleword t.op in
        dest_resources ~double t @ cc @ y

  let uses_with_pos (t : Insn.t) =
    let open Opcode in
    let number xs = List.mapi (fun i r -> (r, i)) xs in
    let icc = if reads_icc t.op then [ Resource.Icc ] else [] in
    let fcc = if reads_fcc t.op then [ Resource.Fcc ] else [] in
    let y = match t.op with Sdiv | Udiv -> [ Resource.Y ] | _ -> [] in
    match t.op with
    | Nop | Sethi | Ba | Bn | Fba | Save | Restore | Ret -> number (icc @ fcc)
    | Be | Bne | Bg | Ble | Bge | Bl | Bgu | Bleu | Bcs | Bcc_
    | Fbe | Fbne | Fbg | Fbl | Fbge | Fble ->
        number (icc @ fcc)
    | Call | Jmpl ->
        number
          [ Resource.R (Reg.int 8); Resource.R (Reg.int 9);
            Resource.R (Reg.int 10); Resource.R (Reg.int 11);
            Resource.R (Reg.int 12); Resource.R (Reg.int 13);
            Resource.Mem_all ]
    | Cmp | Fcmps | Fcmpd ->
        number (List.rev (List.fold_left reg_res [] t.operands))
    | St | Stb | Sth | Stf | Std | Stdf ->
        let double = is_doubleword t.op in
        let value =
          List.concat_map
            (function
              | Operand.Reg r when not (Reg.is_zero r) ->
                  let base = [ Resource.R r ] in
                  if double then
                    match Reg.pair_partner r with
                    | Some r2 -> base @ [ Resource.R r2 ]
                    | None -> base
                  else base
              | Operand.Reg _ | Operand.Imm _ | Operand.Mem _
              | Operand.Target _ -> [])
            t.operands
        in
        let bases =
          List.concat_map
            (function
              | Operand.Mem m -> List.rev (mem_base_use [] m)
              | Operand.Reg _ | Operand.Imm _ | Operand.Target _ -> [])
            t.operands
        in
        number (value @ bases)
    | Ld | Ldd | Ldub | Ldsb | Lduh | Ldsh | Ldf | Lddf ->
        let double = is_doubleword t.op in
        let from_mem =
          List.concat_map
            (function
              | Operand.Mem m -> List.rev (mem_base_use [] m) @ mem_res ~double m
              | Operand.Reg _ | Operand.Imm _ | Operand.Target _ -> [])
            t.operands
        in
        number from_mem
    | _ ->
        let srcs = source_operands t in
        let regs = List.rev (List.fold_left reg_res [] srcs) in
        number (regs @ y)
end

let spec_asm_samples =
  [ "add %o1, %o2, %o3"; "sub %g0, %o2, %g0"; "mov 5, %o1";
    "cmp %o1, %o2"; "smul %o1, %o2, %o3"; "sdiv %o1, %o2, %o3";
    "ld [%fp - 8], %o1"; "ldd [%fp - 8], %o0"; "lddf [%o2 + 4], %f2";
    "st %o1, [%fp - 8]"; "std %o0, [%fp - 16]"; "stdf %f4, [glob + 8]";
    "sethi 1024, %o1"; "be out"; "fba out"; "ba out"; "call f"; "ret";
    "save %sp, -96, %sp"; "restore"; "nop"; "faddd %f0, %f2, %f4";
    "fcmpd %f0, %f2"; "st %g0, [%g0 + 4]"; "ld [gv], %o5" ]

let test_defs_uses_match_spec () =
  let check_insn where i =
    if Insn.defs i <> Spec.defs i then
      Alcotest.failf "%s: defs diverge on: %s" where (Insn.to_string i);
    if Insn.uses_with_pos i <> Spec.uses_with_pos i then
      Alcotest.failf "%s: uses diverge on: %s" where (Insn.to_string i)
  in
  List.iter (fun s -> List.iter (check_insn s) (parse s)) spec_asm_samples;
  for seed = 0 to 199 do
    let b = random_block seed in
    Array.iter (check_insn (Printf.sprintf "seed %d" seed)) b.Block.insns
  done

(* Interning a scan's memory entries without boxing them hands out the
   ids a first-seen-order table of the boxed resources would, past the
   table's growth and after a clear, and each id reads back its
   resource. *)
let test_scan_ids_match_boxed () =
  let ids = Resource.Ids.create () and buf = Insn.Scan.create () in
  let reference = Hashtbl.create 64 in
  let ref_id r =
    if not (Resource.is_memory r) || r = Resource.Mem_all then Resource.Ids.id ids r
    else
      match Hashtbl.find_opt reference r with
      | Some i -> i
      | None ->
          let i = Resource.Ids.n_fixed + Hashtbl.length reference in
          Hashtbl.add reference r i;
          i
  in
  let check_block (b : Block.t) =
    Array.iter
      (fun insn ->
        List.iter
          (fun scan ->
            scan buf insn;
            for j = 0 to Insn.Scan.len buf - 1 do
              let r = Insn.Scan.res buf j in
              let id = Insn.Scan.id ids buf j in
              if id <> ref_id r || not (Resource.equal (Resource.Ids.resource ids id) r)
              then
                Alcotest.failf "%s: id %d, want %d" (Resource.to_string r) id (ref_id r)
            done)
          [ Insn.scan_defs; Insn.scan_uses ])
      b.Block.insns
  in
  let rng = Prng.create 5 in
  let blocks =
    block_of_asm "lddf [%fp - 8], %f2\nstd %o2, [x + 4]\nld [x + 8], %o1\nld [%fp - 4], %o3"
    :: List.init 6 (fun id -> Gen.block rng ~params:Gen.fp_straightline ~id ~size:300 ())
  in
  List.iter check_block blocks;
  check_bool "the table grew past its first 128 slots" true
    (Resource.Ids.interned ids > 64);
  Resource.Ids.clear ids;
  Hashtbl.reset reference;
  check_int "cleared" 0 (Resource.Ids.interned ids);
  List.iter check_block (List.rev blocks)

let suite =
  [ quick "reg names" test_reg_names;
    quick "reg round trip" test_reg_roundtrip;
    quick "reg special" test_reg_special;
    quick "reg pairs" test_reg_pairs;
    quick "mem expr strings" test_mem_expr_strings;
    quick "storage classes" test_storage_classes;
    quick "same base different offset" test_same_base_different_offset;
    quick "opcode round trip" test_opcode_roundtrip;
    quick "opcode classes" test_opcode_classes;
    quick "alu defs/uses" test_alu_defs_uses;
    quick "g0 not a resource" test_g0_not_a_resource;
    quick "cc defs/uses" test_cc_defs_uses;
    quick "y register" test_y_register;
    quick "load defs/uses" test_load_defs_uses;
    quick "store defs/uses" test_store_defs_uses;
    quick "doubleword load pair" test_doubleword_load_pair;
    quick "doubleword store pair" test_doubleword_store_pair;
    quick "use positions" test_use_positions;
    quick "call conservative" test_call_conservative;
    quick "parse simple" test_parse_simple;
    quick "parse labels and comments" test_parse_labels_and_comments;
    quick "parse annul" test_parse_annul;
    quick "parse memory forms" test_parse_memory_forms;
    quick "parse errors" test_parse_errors;
    quick "round trip program" test_roundtrip_program;
    quick "parser edge cases match the yardstick" test_parser_edge_cases;
    quick "parser: bad memory base is a parse error" test_parser_divergence;
    qcheck ~count:300 "parser: generated programs match the yardstick"
      QCheck.(map abs small_signed_int) prop_parser_generated;
    qcheck ~count:500 "parser: mutated programs match the yardstick"
      QCheck.(map abs small_signed_int) prop_parser_mutated;
    Alcotest.test_case "parser: Table-3 corpus matches the yardstick" `Slow
      test_parser_table3_differential;
    Alcotest.test_case "parser allocation budget" `Slow
      test_parser_allocation_budget;
    quick "defs/uses match list-based spec" test_defs_uses_match_spec;
    quick "parser: negative register number is a parse error"
      test_parser_negative_register;
    quick "parser: a tab ends the mnemonic" test_parser_tab_mnemonic;
    quick "scan ids match the boxed resources" test_scan_ids_match_boxed ]
