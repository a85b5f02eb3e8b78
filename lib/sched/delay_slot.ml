(** Branch delay-slot filling.

    The paper's §1 notes control hazards "can be handled in a special
    manner, possibly by a delay slot scheduler".  On a delayed-branch
    machine the instruction after a branch executes regardless of the
    branch's direction; an unfilled slot costs a NOP.

    Given a scheduled block that ends in a branch, this pass tries to move
    one instruction from the block into the slot after the branch.  The
    move is legal when:
    - the instruction is not the branch itself;
    - the branch does not depend on it through any *data* arc (control
      anchor arcs are what put it before the branch in the first place);
    - nothing else in the block depends on it (it has no data children at
      all), so executing it one slot later changes nothing the block can
      observe.

    The candidate nearest the branch is taken, mirroring the common
    heuristic of stealing the last independent instruction. *)

open Ds_machine

type fill = {
  order : int array;      (* new order: the filler moved after the branch *)
  filler : int;           (* node id now in the delay slot *)
}

let data_arc kind = kind <> Dep.Ctl

(* node [i] has a data path to [branch]?  All arcs point forward, so a
   reverse scan with a reachability set suffices. *)
let reaches_via_data dag ~src ~branch =
  let n = Ds_dag.Dag.length dag in
  let reach = Array.make n false in
  reach.(src) <- true;
  let found = ref false in
  for i = src to n - 1 do
    if reach.(i) then
      Ds_dag.Dag.iter_succ dag i (fun dst _ kind ->
          if data_arc kind then begin
            reach.(dst) <- true;
            if dst = branch then found := true
          end)
  done;
  !found

(** Try to fill the delay slot of a schedule whose last instruction is a
    branch.  Returns [None] when the block does not end in a branch or no
    instruction can legally move. *)
let fill (s : Schedule.t) =
  let dag = s.Schedule.dag in
  let n = Array.length s.Schedule.order in
  if n < 2 then None
  else begin
    let last = s.Schedule.order.(n - 1) in
    if not (Ds_isa.Insn.is_branch (Ds_dag.Dag.insn dag last)) then None
    else begin
      let movable i =
        i <> last
        && Ds_dag.Dag.fold_succ dag i
             (fun ok _ _ kind -> ok && not (data_arc kind))
             true
        && not (reaches_via_data dag ~src:i ~branch:last)
      in
      (* scan schedule positions from just before the branch backwards *)
      let rec find pos =
        if pos < 0 then None
        else begin
          let node = s.Schedule.order.(pos) in
          if movable node then Some (pos, node) else find (pos - 1)
        end
      in
      match find (n - 2) with
      | None -> None
      | Some (pos, node) ->
          let order = Array.make n 0 in
          let j = ref 0 in
          Array.iteri
            (fun p x ->
              if p <> pos then begin
                order.(!j) <- x;
                incr j
              end)
            s.Schedule.order;
          order.(n - 1) <- node;
          Some { order; filler = node }
    end
  end

(** Delay-slot statistics over a workload: how many terminating branches
    exist and how many slots a post-scheduling filler can populate. *)
let fill_rate schedules =
  let branches = ref 0 and filled = ref 0 in
  List.iter
    (fun s ->
      let n = Array.length s.Schedule.order in
      if n > 0 then begin
        let last = s.Schedule.order.(n - 1) in
        if Ds_isa.Insn.is_branch (Ds_dag.Dag.insn s.Schedule.dag last) then begin
          incr branches;
          if fill s <> None then incr filled
        end
      end)
    schedules;
  (!branches, !filled)
