(** Cross-block scheduling with inherited operation latencies.

    The paper's §2 notes that "if global information (i.e., across basic
    blocks) is considered, there may be pseudo-nodes and arcs to represent
    operation latencies inherited from immediately preceding blocks.  This
    extra information can be used to avoid dependency stalls and
    structural hazards that a purely local algorithm would ignore", and §7
    lists "determining the benefits of global scheduling information" as
    planned work.  This module implements it:

    - [exit_residue] extracts, from a scheduled block, which register/CC
      values are still in flight when the block's last instruction issues
      and how long each non-pipelined unit stays busy;
    - [schedule_chain] schedules a straight-line sequence of blocks either
      purely locally or with each block's scheduler seeded by the previous
      block's residue, and scores the concatenation on the pipeline
      simulator (which carries machine state across block boundaries
      either way — the machine does not care about the compiler's block
      structure). *)

open Ds_isa
open Ds_machine
open Ds_heur

type residue = {
  pending : (Resource.t * int) list;
      (* value available this many cycles after the next block starts *)
  unit_busy : int array;  (* per Funit index *)
}

let empty_residue = { pending = []; unit_busy = Array.make Funit.count 0 }

(** Residual latencies at the exit of a scheduled block.  The next block's
    first issue slot is the cycle after this block's last issue.  Reads
    the block's decode: the table builder's while it is this domain's
    current one, as {!Schedule.score} does.  [pending] has one entry per
    resource defined by an instruction still in flight at the exit: the
    residual of its last such definition.  The most recently defined
    come first, and an instruction's later definitions before its
    earlier ones. *)
let exit_residue (s : Schedule.t) =
  let order = s.Schedule.order in
  let n = Array.length order in
  if n = 0 then empty_residue
  else begin
    let dag = s.Schedule.dag in
    let sc =
      Pipeline.decoded ~gen:(Ds_dag.Dag.decode_gen dag) (Ds_dag.Dag.model dag)
        (Ds_dag.Dag.insns dag)
    in
    let issue = (Pipeline.simulate sc order).Pipeline.issue_cycle in
    let next_start = issue.(n - 1) + 1 in
    (* (id, residual) per definition, most recent first *)
    let defined = ref [] in
    let unit_busy = Array.make Funit.count 0 in
    for p = 0 to n - 1 do
      let i = order.(p) in
      let residual = issue.(p) + sc.Pipeline.exec.(i) - next_start in
      if residual > 0 then
        for d = sc.Pipeline.def_start.(i) to sc.Pipeline.def_start.(i + 1) - 1 do
          defined := (sc.Pipeline.def_ids.(d), residual) :: !defined
        done;
      let busy = sc.Pipeline.busy.(i) in
      if busy > 0 then begin
        let u = sc.Pipeline.unit.(i) in
        unit_busy.(u) <- Int.max unit_busy.(u) (issue.(p) + busy - next_start)
      end
    done;
    let seen = Array.make sc.Pipeline.n_res false in
    let pending =
      List.filter_map
        (fun (id, residual) ->
          if seen.(id) then None
          else begin
            seen.(id) <- true;
            Some (sc.Pipeline.res.(id), residual)
          end)
        !defined
    in
    { pending; unit_busy }
  end

let seed_of residue st =
  Dyn_state.seed st ~pending:residue.pending ~unit_busy:residue.unit_busy

(** Schedule a block sequence.  With [inherit_latencies], each block's
    scheduler is seeded with the previous block's exit residue; without
    it, each block is scheduled in isolation (the machine still carries
    its state across the boundary when the result is simulated). *)
let schedule_chain ?(inherit_latencies = true) ~config ~opts blocks =
  let residue = ref empty_residue in
  let scheduled =
    List.map
      (fun block ->
        let dag = Ds_dag.Builder.build Ds_dag.Builder.Table_forward opts block in
        let annot =
          Static_pass.compute_for
            (List.map (fun k -> k.Engine.heuristic) config.Engine.keys)
            dag
        in
        let seed = if inherit_latencies then Some (seed_of !residue) else None in
        let order = Engine.run ?seed config ~annot dag in
        let s = Schedule.make dag order in
        residue := exit_residue s;
        s)
      blocks
  in
  let insns =
    Array.concat (List.map (fun s -> Array.to_list (Schedule.insns s) |> Array.of_list) scheduled)
  in
  (scheduled, insns)

(** Total machine cycles of the concatenated schedules (cross-block stalls
    included — the pipeline simulator carries resource state through). *)
let chain_cycles model insns = Pipeline.cycles model insns
