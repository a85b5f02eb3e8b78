(** Basic-block partitioning.

    Block boundaries, per the paper's §2:
    - branches end a block (the branch stays in the block; the delay-slot
      instruction after it starts the next block, matching the paper's
      counting convention);
    - procedure calls end a block unless [calls_end_blocks] is false, in
      which case conservative call defs/uses create dependence arcs
      instead;
    - register-window-altering instructions (SAVE/RESTORE) always end a
      block, "since register identifiers name different physical resources
      on different sides of these instructions";
    - labels begin a block (a label is a potential branch target).

    An optional [max_block_size] splits larger blocks, implementing the
    instruction-window mitigation the paper applies to fpppp
    (fpppp-1000/2000/4000 in Tables 3-5).

    One walk over the parsed list finds the boundaries: a block is the
    run of list cells from its first instruction, counted as the walk
    passes them, and is copied straight into its array when it closes,
    so an instruction costs its array slot and nothing else. *)

open Ds_isa

type options = {
  calls_end_blocks : bool;
  max_block_size : int option;
}

let default_options = { calls_end_blocks = true; max_block_size = None }

(* A placeholder for [Array.make]: a constant, so it is static data and
   an array over [Max_young_wosize] (256 words) starts without the minor
   collection [caml_make_vect] forces when its initial value is young. *)
let filler =
  { Insn.index = -1; op = Opcode.Nop; operands = []; annul = false; label = None }

let rec fill insns run i len =
  if i < len then
    match run with
    | insn :: rest ->
        insns.(i) <- insn;
        fill insns rest (i + 1) len
    | [] -> assert false

(* Block [id] from the [len] instructions at the head of [run]: its list
   cells are copied straight into the array. *)
let block_of run len id =
  let insns = Array.make len filler in
  fill insns run 0 len;
  { Block.id; insns }

(* [run] is the list from the current block's first instruction, [len]
   of them taken so far, and [rest] the list from the next one; blocks
   are consed newest first.  A labelled instruction closes the block
   before it. *)
let rec split ~calls ~limit run len id rest blocks =
  match rest with
  | [] -> if len > 0 then block_of run len id :: blocks else blocks
  | insn :: tail when insn.Insn.label <> None && len > 0 ->
      take ~calls ~limit rest 0 (id + 1) insn tail (block_of run len id :: blocks)
  | insn :: tail -> take ~calls ~limit run len id insn tail blocks

(* [insn] joins the block; the window, a branch, a SAVE/RESTORE or (when
   [calls]) a call closes the block after it. *)
and take ~calls ~limit run len id insn tail blocks =
  let len = len + 1 in
  if len >= limit || Insn.is_branch insn || Insn.alters_window insn
     || (calls && Insn.is_call insn)
  then split ~calls ~limit tail 0 (id + 1) tail (block_of run len id :: blocks)
  else split ~calls ~limit run len id tail blocks

let partition ?(options = default_options) insns =
  let limit = Option.value options.max_block_size ~default:max_int in
  List.rev (split ~calls:options.calls_end_blocks ~limit insns 0 0 insns [])

(** Split oversized blocks at a window boundary, preserving all existing
    block boundaries; used for the fpppp-1000/2000/4000 variants. *)
let with_window blocks ~max_block_size =
  assert (max_block_size > 0);
  let next_id = ref 0 in
  let split block =
    let n = Block.length block in
    if n <= max_block_size then begin
      let b = { block with Block.id = !next_id } in
      incr next_id;
      [ b ]
    end
    else begin
      let pieces = ref [] in
      let start = ref 0 in
      while !start < n do
        let len = min max_block_size (n - !start) in
        pieces :=
          { Block.id = !next_id;
            insns = Array.sub block.Block.insns !start len }
          :: !pieces;
        incr next_id;
        start := !start + len
      done;
      List.rev !pieces
    end
  in
  List.concat_map split blocks
