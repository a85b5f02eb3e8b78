(** Postpass delay-slot fixup.

    "Some algorithms (e.g., Krishnamurthy) use a postpass 'fixup' to try to
    fill more operation delay slots than are filled by the heuristic
    scheduling pass" (§5).  This greedy pass simulates the schedule, finds
    issue-slot bubbles, and tries to hoist a later instruction into each
    bubble when no dependence arc crosses the move, keeping the first
    move that shortens the schedule.  It repeats until a full sweep
    yields no improvement. *)

open Ds_machine

(* [earliest.(p)]: the first position [order.(p)] may be hoisted to —
   one past its last predecessor's position, or 0 when it has none.  A
   hoist from [p] to [target_pos] is legal (no arc connects a node in
   positions [target_pos, p) to the mover) iff [earliest.(p) <= target_pos],
   since in a valid order every predecessor sits before [p].  Positions
   are visited in ascending order, so each node's last write is its
   latest predecessor's. *)
let earliest_positions dag order =
  let by_node = Array.make (Array.length order) 0 in
  Array.iteri
    (fun p node -> Ds_dag.Dag.iter_succ dag node (fun d _ _ -> by_node.(d) <- p + 1))
    order;
  Array.map (fun node -> by_node.(node)) order

let hoist order ~from_pos ~target_pos =
  let v = order.(from_pos) in
  Array.blit order target_pos order (target_pos + 1) (from_pos - target_pos);
  order.(target_pos) <- v

(** One sweep: returns true when a profitable move was applied.  The
    prefix is issued in the machine state; at each bubble a trial issues
    a mover and the rest, until its completion (which only grows)
    reaches the full replay's, and undoes back to the bubble. *)
let sweep (s : Schedule.t) =
  let order = s.order in
  let n = Array.length order in
  let sc = Ds_dag.Dag.decoded s.dag in
  let result = Pipeline.simulate sc order in
  let baseline = result.Pipeline.completion in
  let issue = result.Pipeline.issue_cycle in
  let earliest = earliest_positions s.dag order in
  let st = Pipeline.start sc in
  (* [order.(from_pos)] issued at [target_pos], then the rest in order *)
  let beats_baseline ~from_pos ~target_pos =
    ignore (Pipeline.issue st order.(from_pos));
    let p = ref target_pos in
    while !p < n && Pipeline.completed st < baseline do
      if !p <> from_pos then ignore (Pipeline.issue st order.(!p));
      incr p
    done;
    Pipeline.completed st < baseline
  in
  let improved = ref false in
  let pos = ref 0 in
  while (not !improved) && !pos < n do
    let target_pos = !pos in
    (* a bubble: the instruction issued later than the slot after its
       predecessor's *)
    let expected = if target_pos = 0 then 0 else issue.(target_pos - 1) + 1 in
    if issue.(target_pos) > expected then begin
      let m = Pipeline.mark st in
      let from_pos = ref (target_pos + 1) in
      while (not !improved) && !from_pos < n do
        if earliest.(!from_pos) <= target_pos
           && beats_baseline ~from_pos:!from_pos ~target_pos
        then begin
          hoist order ~from_pos:!from_pos ~target_pos;
          improved := true
        end;
        Pipeline.undo st m;
        incr from_pos
      done
    end;
    ignore (Pipeline.issue st order.(target_pos));
    incr pos
  done;
  !improved

(** Iterate sweeps to a fixed point (bounded by the block length). *)
let run (s : Schedule.t) =
  let n = Array.length s.order in
  let rec go k = if k > 0 && sweep s then go (k - 1) in
  go n;
  s
