(** Basic-block partitioning tests: leaders, terminators, the delay-slot
    counting convention, windows, and the Table-3 structural summary. *)

open Dagsched
open Helpers

let partition ?options s = Cfg_builder.partition ?options (parse s)

let sizes blocks = List.map Block.length blocks

let test_branch_ends_block () =
  let blocks = partition "add %o1, 1, %o2\nbe next\nadd %o2, 1, %o3" in
  Alcotest.(check (list int)) "split after branch" [ 2; 1 ] (sizes blocks)

let test_delay_slot_goes_to_next_block () =
  (* the instruction after a branch (its delay slot) belongs to the
     following block — the paper's counting convention *)
  let blocks = partition "cmp %o1, 0\nbe,a out\nadd %o2, 1, %o3\nsub %o3, 1, %o4" in
  Alcotest.(check (list int)) "delay slot counted downstream" [ 2; 2 ] (sizes blocks)

let test_label_is_leader () =
  let blocks =
    partition "add %o1, 1, %o2\nsub %o2, 1, %o3\nloop:\nadd %o2, 1, %o3"
  in
  Alcotest.(check (list int)) "label starts a block" [ 2; 1 ] (sizes blocks)

let test_call_ends_block () =
  let blocks = partition "add %o1, 1, %o2\ncall foo\nadd %o2, 1, %o3" in
  Alcotest.(check (list int)) "call ends block" [ 2; 1 ] (sizes blocks)

let test_call_kept_when_disabled () =
  let options = { Cfg_builder.default_options with Cfg_builder.calls_end_blocks = false } in
  let blocks = partition ~options "add %o1, 1, %o2\ncall foo\nadd %o2, 1, %o3" in
  Alcotest.(check (list int)) "call inside block" [ 3 ] (sizes blocks)

let test_window_alteration_ends_block () =
  let blocks = partition "save %sp, -96, %sp\nadd %i0, 1, %o0\nrestore\nnop" in
  Alcotest.(check (list int)) "save/restore boundaries" [ 1; 2; 1 ] (sizes blocks)

let test_max_block_size () =
  let options = { Cfg_builder.default_options with Cfg_builder.max_block_size = Some 2 } in
  let blocks = partition ~options "nop\nnop\nnop\nnop\nnop" in
  Alcotest.(check (list int)) "windowed" [ 2; 2; 1 ] (sizes blocks)

let test_with_window_preserves_boundaries () =
  let blocks = partition "nop\nnop\nnop\nlbl:\nnop\nnop" in
  let windowed = Cfg_builder.with_window blocks ~max_block_size:2 in
  Alcotest.(check (list int)) "only oversized split" [ 2; 1; 2 ] (sizes windowed);
  (* total instruction count unchanged *)
  check_int "same instructions"
    (List.fold_left ( + ) 0 (sizes blocks))
    (List.fold_left ( + ) 0 (sizes windowed))

let test_block_ids_sequential () =
  let blocks = partition "be a\nnop\nbe b\nnop" in
  List.iteri (fun i b -> check_int "id" i b.Block.id) blocks

let test_terminator () =
  let blocks = partition "add %o1, 1, %o2\nbe next" in
  match blocks with
  | [ b ] -> check_bool "has terminator" true (Block.terminator b <> None)
  | _ -> Alcotest.fail "expected one block"

let test_unique_mem_exprs () =
  let b =
    block_of_asm
      "ld [%fp - 8], %o1\nld [%fp - 8], %o2\nld [%fp - 16], %o3\nst %o1, [x]\nadd %o1, %o2, %o4"
  in
  check_int "three unique expressions" 3 (Block.unique_mem_exprs b)

let test_summary () =
  let blocks = partition "ld [x], %o1\nbe a\nnop\nnop" in
  let s = Summary.of_blocks blocks in
  check_int "blocks" 2 s.Summary.blocks;
  check_int "insts" 4 s.Summary.insns;
  check_int "max" 2 s.Summary.insns_per_block_max;
  Alcotest.(check (float 1e-9)) "avg" 2.0 s.Summary.insns_per_block_avg;
  check_int "mem max" 1 s.Summary.mem_exprs_per_block_max

let test_empty_program () =
  check_int "no blocks" 0 (List.length (partition ""))

(* ------------------------------------------------------------------ *)
(* run-copying partition against the list-based yardstick *)

(* A random instruction list: ALU instructions broken by branches,
   calls, SAVE/RESTORE and labels at a density drawn per list, from
   none (a block past 256 instructions) to most; the first instruction
   is labelled half the time. *)
let random_insns rng =
  let n =
    match Prng.int rng 4 with
    | 0 -> Prng.int rng 3
    | 1 -> 257 + Prng.int rng 300
    | _ -> Prng.int rng 60
  in
  let density = Prng.choose rng [| 0.0; 0.01; 0.2; 0.6 |] in
  let enders = Opcode.[| Be; Ba; Call; Jmpl; Save; Restore |] in
  List.init n (fun i ->
      let op =
        if Prng.bool rng density then Prng.choose rng enders else Opcode.Add
      in
      let label =
        if (i = 0 && Prng.bool rng 0.5) || Prng.bool rng density then
          Some (Printf.sprintf "L%d" i)
        else None
      in
      Insn.make ~index:i ?label op [])

let random_options rng =
  { Cfg_builder.calls_end_blocks = Prng.bool rng 0.5;
    max_block_size =
      (match Prng.int rng 3 with
      | 0 -> None
      | 1 -> Some (Prng.range rng 0 8)
      | _ -> Some (Prng.range rng 1 300)) }

let same_partition ?options insns =
  Cfg_builder.partition ?options insns = Partition_legacy.partition ?options insns

let prop_partition_matches_legacy seed =
  let rng = Prng.create seed in
  let insns = random_insns rng in
  same_partition insns && same_partition ~options:(random_options rng) insns

(* the shapes the generator may miss, named *)
let test_partition_edge_cases () =
  let ld ?label i = Insn.make ~index:i ?label Opcode.Ld [] in
  let long = List.init 300 (fun i -> ld i) in
  List.iter
    (fun (what, insns) ->
      check_bool what true (same_partition insns);
      check_bool (what ^ ", windowed") true
        (same_partition
           ~options:{ Cfg_builder.default_options with max_block_size = Some 7 }
           insns))
    [ ("empty", []);
      ("label on the first", [ ld ~label:"a" 0; ld 1 ]);
      ("labelled run", List.init 5 (fun i -> ld ~label:(string_of_int i) i));
      ("past 256", long);
      ("past 256 after a label", ld ~label:"a" 0 :: long) ]

let suite =
  [ quick "branch ends block" test_branch_ends_block;
    quick "delay slot to next block" test_delay_slot_goes_to_next_block;
    quick "label is leader" test_label_is_leader;
    quick "call ends block" test_call_ends_block;
    quick "call kept when disabled" test_call_kept_when_disabled;
    quick "save/restore ends block" test_window_alteration_ends_block;
    quick "max block size" test_max_block_size;
    quick "with_window preserves boundaries" test_with_window_preserves_boundaries;
    quick "block ids sequential" test_block_ids_sequential;
    quick "terminator" test_terminator;
    quick "unique mem exprs" test_unique_mem_exprs;
    quick "summary" test_summary;
    quick "empty program" test_empty_program;
    quick "partition edge cases match the yardstick" test_partition_edge_cases;
    qcheck ~count:500 "partition: random instruction lists match the yardstick"
      QCheck.(map abs small_signed_int) prop_partition_matches_legacy ]
