(** Postpass delay-slot fixup.

    "Some algorithms (e.g., Krishnamurthy) use a postpass 'fixup' to try to
    fill more operation delay slots than are filled by the heuristic
    scheduling pass" (§5).  This greedy pass simulates the schedule, finds
    issue-slot bubbles, and tries to hoist a later instruction into each
    bubble when no dependence arc crosses the move.  It repeats until a
    full sweep yields no improvement. *)

(* Can node [mover] be placed immediately before position [target_pos]
   given it currently sits at [from_pos]?  Legal iff no arc connects any
   instruction in positions [target_pos, from_pos) to [mover]. *)
let can_hoist (s : Schedule.t) position ~from_pos ~target_pos =
  let mover = s.order.(from_pos) in
  not
    (Ds_dag.Dag.fold_pred s.dag mover
       (fun blocked src _ _ ->
         let p = position.(src) in
         blocked || (p >= target_pos && p < from_pos))
       false)

let hoist order ~from_pos ~target_pos =
  let v = order.(from_pos) in
  Array.blit order target_pos order (target_pos + 1) (from_pos - target_pos);
  order.(target_pos) <- v

(* Undo [hoist]: move the node at [target_pos] back to [from_pos]. *)
let unhoist order ~from_pos ~target_pos =
  let v = order.(target_pos) in
  Array.blit order (target_pos + 1) order target_pos (from_pos - target_pos);
  order.(from_pos) <- v

(** One sweep: returns true when a profitable move was applied.  The
    block is scanned once; every trial order is scored against that
    scan. *)
let sweep (s : Schedule.t) =
  let n = Array.length s.order in
  let scan = Schedule.scan s in
  let result = Ds_machine.Pipeline.simulate scan s.order in
  let baseline = result.Ds_machine.Pipeline.completion in
  let position = Array.make n 0 in
  Array.iteri (fun pos node -> position.(node) <- pos) s.order;
  let improved = ref false in
  (* find the first bubble: instruction that issued later than slot-next *)
  let rec find_bubble pos =
    if pos >= n || !improved then ()
    else begin
      let expected =
        if pos = 0 then 0 else result.Ds_machine.Pipeline.issue_cycle.(pos - 1) + 1
      in
      if result.Ds_machine.Pipeline.issue_cycle.(pos) > expected then begin
        (* try to hoist a later instruction into this slot *)
        let rec try_from from_pos =
          if from_pos >= n || !improved then ()
          else begin
            if can_hoist s position ~from_pos ~target_pos:pos then begin
              hoist s.order ~from_pos ~target_pos:pos;
              if Ds_machine.Pipeline.completion scan s.order < baseline then
                improved := true
              else unhoist s.order ~from_pos ~target_pos:pos
            end;
            if not !improved then try_from (from_pos + 1)
          end
        in
        try_from (pos + 1)
      end;
      find_bubble (pos + 1)
    end
  in
  find_bubble 0;
  !improved

(** Iterate sweeps to a fixed point (bounded by the block length). *)
let run (s : Schedule.t) =
  let n = Array.length s.order in
  let rec go k = if k > 0 && sweep s then go (k - 1) in
  go n;
  s
