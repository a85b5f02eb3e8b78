(** Schedule validity: a legal schedule is a permutation of the block that
    respects every dependence arc (each parent issues before each child).
    Property-tested for every published algorithm on random blocks. *)

type violation =
  | Not_a_permutation
  | Arc_violated of Ds_dag.Dag.arc

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

let is_valid s = check s = Ok ()

let violation_to_string = function
  | Not_a_permutation -> "schedule is not a permutation of the block"
  | Arc_violated a ->
      Printf.sprintf "arc %d -> %d (%s, %d cycles) violated" a.src a.dst
        (Ds_machine.Dep.kind_to_string a.kind)
        a.latency
