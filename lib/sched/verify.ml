(** Schedule validity: a legal schedule is a permutation of the block that
    respects every dependence arc (each parent issues before each child).
    Property-tested for every published algorithm on random blocks. *)

type violation =
  | Not_a_permutation
  | Arc_violated of Ds_dag.Dag.arc

(* Each node's position in the order, in a per-domain array grown to
   the largest block checked, so a valid schedule costs no allocation. *)
type scratch = { mutable position : int array }

let scratch_key = Domain.DLS.new_key (fun () -> { position = [||] })

let check (s : Schedule.t) =
  let dag = s.dag and order = s.order in
  let n = Ds_dag.Dag.length dag in
  if Array.length order <> n then Error Not_a_permutation
  else begin
    let sc = Domain.DLS.get scratch_key in
    if Array.length sc.position < n then
      sc.position <- Array.make (max n (2 * Array.length sc.position)) 0;
    let position = sc.position in
    Array.fill position 0 n (-1);
    (* n entries, each in range and new: a permutation *)
    let perm = ref true and pos = ref 0 in
    while !perm && !pos < n do
      let node = order.(!pos) in
      if node < 0 || node >= n || position.(node) >= 0 then perm := false
      else position.(node) <- !pos;
      incr pos
    done;
    if not !perm then Error Not_a_permutation
    else begin
      (* the first violated arc in [Dag.iter_arcs] order: ascending
         sources, each source's arcs in chain order *)
      let bad = ref (-1) and src = ref 0 in
      while !bad < 0 && !src < n do
        let a = ref (Ds_dag.Dag.succ_first dag !src) in
        while !bad < 0 && !a >= 0 do
          if position.(!src) >= position.(Ds_dag.Dag.arc_dst dag !a) then bad := !a
          else a := Ds_dag.Dag.succ_next dag !a
        done;
        incr src
      done;
      if !bad < 0 then Ok () else Error (Arc_violated (Ds_dag.Dag.arc dag !bad))
    end
  end

let is_valid s = check s = Ok ()

let violation_to_string = function
  | Not_a_permutation -> "schedule is not a permutation of the block"
  | Arc_violated a ->
      Printf.sprintf "arc %d -> %d (%s, %d cycles) violated" a.src a.dst
        (Ds_machine.Dep.kind_to_string a.kind)
        a.latency
