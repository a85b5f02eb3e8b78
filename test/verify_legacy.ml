(* Schedule validity as it stood when [Verify.check] allocated a
   position array per schedule and walked arcs with [Dag.iter_succ] and
   a closure.  Kept verbatim as the yardstick for the differential tests
   of {!Ds_sched.Verify}: the two must agree on every order, including
   which arc they report first.  Not for pipeline use. *)

open Ds_sched
open Verify

let check (s : Schedule.t) =
  let n = Ds_dag.Dag.length s.dag in
  if Array.length s.order <> n then Error Not_a_permutation
  else begin
    let position = Array.make n (-1) in
    let dup = ref false in
    Array.iteri
      (fun pos node ->
        if node < 0 || node >= n || position.(node) >= 0 then dup := true
        else position.(node) <- pos)
      s.order;
    if !dup || Array.exists (fun p -> p < 0) position then
      Error Not_a_permutation
    else begin
      (* the first violated arc in [Dag.iter_arcs] order: ascending
         sources, each source's arcs in [iter_succ] order; one arc check
         serves every source *)
      let bad = ref None in
      let src = ref 0 in
      let check_arc dst latency kind =
        if Option.is_none !bad && position.(!src) >= position.(dst) then
          bad := Some { Ds_dag.Dag.src = !src; dst; kind; latency }
      in
      while Option.is_none !bad && !src < n do
        Ds_dag.Dag.iter_succ s.dag !src check_arc;
        incr src
      done;
      match !bad with None -> Ok () | Some arc -> Error (Arc_violated arc)
    end
  end
