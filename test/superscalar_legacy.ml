(** The superscalar simulator that lived beside [Pipeline] before
    [Pipeline.run] took an issue width, kept verbatim as a yardstick:
    per-resource state in a [Hashtbl] keyed by resources, readers as
    lists, a table of issues per cycle.  The differential tests require
    [Pipeline.run ~width] to reproduce its issue cycles, completion and
    dual-issue rate exactly.  Not for pipeline use.

    In-order superscalar pipeline simulator.

    The paper motivates the instruction-class heuristics with superscalar
    issue: "reordering and instruction substitution can also be used to
    provide a more balanced instruction stream to the multiple function
    units of a superscalar processor", and the alternate-type heuristic
    "attempts to alternate instruction selection among the different
    classes of instructions on a superscalar processor".

    This simulator issues up to [width] instructions per cycle, in order,
    with at most one instruction per function unit per cycle (the
    structural constraint that makes class alternation pay), the same
    data-dependency rules as {!Pipeline}, and non-pipelined FP unit busy
    times. *)

open Ds_isa
open Ds_machine

module Tbl = Hashtbl.Make (Resource)

type result = {
  issue_cycle : int array;
  completion : int;
  issued_per_cycle : (int, int) Hashtbl.t;  (* cycle -> instructions issued *)
}

type resource_state = {
  mutable writer : int;
  mutable writer_issue : int;
  mutable writer_def_pos : int;
  mutable readers : (int * int) list;
}

let fresh_state () = { writer = -1; writer_issue = 0; writer_def_pos = 0; readers = [] }

let run ~width (model : Latency.t) (insns : Insn.t array) =
  assert (width >= 1);
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
  let issued_per_cycle = Hashtbl.create 64 in
  let unit_taken_at = Array.make Funit.count (-1) in (* cycle of last same-cycle issue *)
  let completion = ref 0 in
  let cycle = ref 0 in
  let slots_left = ref width in
  for i = 0 to n - 1 do
    let insn = insns.(i) in
    (* earliest data-ready cycle *)
    let earliest = ref !cycle in
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
    let u = Funit.index (Funit.of_insn insn) in
    let busy = model.Latency.fp_busy insn in
    if busy > 0 then earliest := max !earliest unit_free.(u);
    (* find the first cycle >= earliest with an issue slot and a free unit
       this cycle (in-order: cannot pass the current issue point) *)
    let t = ref (max !earliest !cycle) in
    let fits t = (t > !cycle || !slots_left > 0) && unit_taken_at.(u) <> t in
    while not (fits !t) do incr t done;
    if !t > !cycle then begin
      cycle := !t;
      slots_left := width
    end;
    issue_cycle.(i) <- !t;
    slots_left := !slots_left - 1;
    unit_taken_at.(u) <- !t;
    Hashtbl.replace issued_per_cycle !t
      (1 + Option.value ~default:0 (Hashtbl.find_opt issued_per_cycle !t));
    if busy > 0 then unit_free.(u) <- !t + busy;
    List.iteri
      (fun def_pos res ->
        let s = state res in
        s.writer <- i;
        s.writer_issue <- !t;
        s.writer_def_pos <- def_pos;
        s.readers <- [])
      (Insn.defs insn);
    List.iter
      (fun res ->
        let s = state res in
        s.readers <- (i, !t) :: s.readers)
      (Insn.uses insn);
    completion := max !completion (!t + model.Latency.exec_time insn)
  done;
  { issue_cycle; completion = !completion; issued_per_cycle }

let cycles ~width model insns = (run ~width model insns).completion

(** Fraction of issue cycles that used more than one slot — how balanced
    the stream is (the alternate-type heuristic's target). *)
let dual_issue_rate result =
  let cycles = Hashtbl.length result.issued_per_cycle in
  if cycles = 0 then 0.0
  else begin
    let multi =
      Hashtbl.fold (fun _ k acc -> if k > 1 then acc + 1 else acc)
        result.issued_per_cycle 0
    in
    float_of_int multi /. float_of_int cycles
  end
