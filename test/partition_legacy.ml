(** The list-based block partition, kept verbatim as a yardstick.

    This is the [Cfg_builder.partition] that shipped before the
    partition that copies each block's run of list cells straight into
    its array: it conses each instruction onto the current block,
    reverses it and copies it with [Array.of_list].  It exists for the
    differential test only, which requires the same blocks — ids,
    boundaries and instructions — over random instruction lists.  Not
    for pipeline use. *)

open Ds_isa

type options = Ds_cfg.Builder.options = {
  calls_end_blocks : bool;
  max_block_size : int option;
}

let default_options = { calls_end_blocks = true; max_block_size = None }

let partition ?(options = default_options) insns =
  let blocks = ref [] in
  let current = ref [] in
  let current_len = ref 0 in
  let next_id = ref 0 in
  let flush () =
    if !current <> [] then begin
      let arr = Array.of_list (List.rev !current) in
      blocks := { Ds_cfg.Block.id = !next_id; insns = arr } :: !blocks;
      incr next_id;
      current := [];
      current_len := 0
    end
  in
  let add insn =
    current := insn :: !current;
    incr current_len;
    match options.max_block_size with
    | Some limit when !current_len >= limit -> flush ()
    | Some _ | None -> ()
  in
  List.iter
    (fun insn ->
      (* a labeled instruction is a leader: close the previous block *)
      if insn.Insn.label <> None then flush ();
      add insn;
      let ends =
        Insn.is_branch insn
        || Insn.alters_window insn
        || (options.calls_end_blocks && Insn.is_call insn)
      in
      if ends then flush ())
    insns;
  flush ();
  List.rev !blocks
