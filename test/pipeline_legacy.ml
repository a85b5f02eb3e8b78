(** The hashtable-and-list pipeline simulator, kept verbatim as a
    yardstick.

    This is the [Pipeline.run] that shipped before the scan/simulate
    split: per-resource state in a [Hashtbl], readers as lists, and the
    list views [Insn.defs]/[Insn.uses_with_pos]/[Insn.uses] per
    instruction.  It exists for the differential tests only, which
    require the flat simulator to reproduce its issue cycles, completion
    and stalls exactly.  Not for pipeline use. *)

open Ds_isa
open Ds_machine

module Tbl = Hashtbl.Make (Resource)

type result = Pipeline.result = {
  issue_cycle : int array;   (* per instruction, in schedule order *)
  completion : int;          (* cycle after the last result is ready *)
  stall_cycles : int;        (* issue-slot bubbles from interlocks *)
}

type resource_state = {
  mutable writer : int;          (* index into the schedule, -1 if none *)
  mutable writer_issue : int;
  mutable writer_def_pos : int;
  mutable readers : (int * int) list;  (* (schedule index, issue cycle) *)
}

let fresh_state () = { writer = -1; writer_issue = 0; writer_def_pos = 0; readers = [] }

(** [run model insns] simulates issuing [insns] in the given order. *)
let run (model : Latency.t) (insns : Insn.t array) =
  let n = Array.length insns in
  let issue_cycle = Array.make n 0 in
  let states : resource_state Tbl.t = Tbl.create 64 in
  let state r =
    match Tbl.find_opt states r with
    | Some s -> s
    | None ->
        let s = fresh_state () in
        Tbl.add states r s;
        s
  in
  let unit_free = Array.make Funit.count 0 in
  let stalls = ref 0 in
  let completion = ref 0 in
  for i = 0 to n - 1 do
    let insn = insns.(i) in
    let earliest = ref (if i = 0 then 0 else issue_cycle.(i - 1) + 1) in
    let min_issue = !earliest in
    (* RAW: every used resource must have been produced *)
    List.iter
      (fun (res, use_pos) ->
        let s = state res in
        if s.writer >= 0 then begin
          let lat =
            model.Latency.raw ~parent:insns.(s.writer) ~def_pos:s.writer_def_pos
              ~res ~child:insn ~use_pos
          in
          earliest := max !earliest (s.writer_issue + lat)
        end)
      (Insn.uses_with_pos insn);
    (* WAR and WAW on every defined resource *)
    List.iter
      (fun res ->
        let s = state res in
        List.iter
          (fun (ri, rissue) ->
            if ri <> i then
              let lat = model.Latency.war ~parent:insns.(ri) ~res ~child:insn in
              earliest := max !earliest (rissue + lat))
          s.readers;
        if s.writer >= 0 then begin
          let lat = model.Latency.waw ~parent:insns.(s.writer) ~res ~child:insn in
          earliest := max !earliest (s.writer_issue + lat)
        end)
      (Insn.defs insn);
    (* structural hazard: non-pipelined FP unit still busy *)
    let busy = model.Latency.fp_busy insn in
    let unit = Funit.index (Funit.of_insn insn) in
    if busy > 0 then earliest := max !earliest unit_free.(unit);
    let t = !earliest in
    issue_cycle.(i) <- t;
    stalls := !stalls + (t - min_issue);
    if busy > 0 then unit_free.(unit) <- t + busy;
    (* record definitions and uses *)
    List.iteri
      (fun def_pos res ->
        let s = state res in
        s.writer <- i;
        s.writer_issue <- t;
        s.writer_def_pos <- def_pos;
        s.readers <- [])
      (Insn.defs insn);
    List.iter
      (fun (res, _) ->
        let s = state res in
        s.readers <- (i, t) :: s.readers)
      (Insn.uses insn |> List.map (fun r -> (r, 0)));
    completion := max !completion (t + model.Latency.exec_time insn)
  done;
  { issue_cycle; completion = !completion; stall_cycles = !stalls }
