(* The benchmark's independent output check.  A schedule is correct when
   its instructions, run through the architectural interpreter from a
   seeded random state, end in the same state as the block run in its
   original order.  This never consults the DAG the scheduler used, so a
   wrong dependence arc cannot hide a wrong schedule.

   States are compared here rather than with [Interp.equal_state]: that
   compares memory cells with polymorphic equality, under which a cell
   holding NaN is unequal to itself, and FP blocks that store a NaN fail
   against their own replay. *)

open Dagsched

let value_equal a b =
  match (a, b) with
  | Interp.Int_value x, Interp.Int_value y -> Int64.equal x y
  | Interp.Float_value x, Interp.Float_value y -> Float.equal x y
  | _ -> false

let same_state (a : Interp.state) (b : Interp.state) =
  Array.for_all2 Int64.equal a.Interp.int_regs b.Interp.int_regs
  && Array.for_all2 Float.equal a.Interp.fp_regs b.Interp.fp_regs
  && a.Interp.icc = b.Interp.icc
  && a.Interp.fcc = b.Interp.fcc
  && Int64.equal a.Interp.y b.Interp.y
  && Hashtbl.length a.Interp.memory = Hashtbl.length b.Interp.memory
  && Hashtbl.fold
       (fun k v ok ->
         ok
         &&
         match Hashtbl.find_opt b.Interp.memory k with
         | Some w -> value_equal v w
         | None -> false)
       a.Interp.memory true

let is_permutation n order =
  Array.length order = n
  &&
  let seen = Array.make n false in
  Array.for_all
    (fun i ->
      i >= 0 && i < n && (not seen.(i)) && (seen.(i) <- true; true))
    order

(* [schedule_ok ~seed block order]: [order] lists the block's instruction
   indices in scheduled order *)
let schedule_ok ~seed (block : Block.t) order =
  let insns = block.Block.insns in
  is_permutation (Array.length insns) order
  &&
  let init = Interp.create () in
  Interp.randomize (Prng.create ((seed * 65599) + block.Block.id)) init;
  match
    ( Interp.run ~state:(Interp.copy init) insns,
      Interp.run ~state:(Interp.copy init) (Array.map (Array.get insns) order) )
  with
  | original, scheduled -> same_state original scheduled
  | exception Interp.Unsupported _ -> false

(* number of blocks whose schedule fails the check *)
let mismatches ~seed blocks orders =
  List.fold_left2
    (fun n block order -> if schedule_ok ~seed block order then n else n + 1)
    0 blocks orders
