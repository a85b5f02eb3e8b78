(** Level assignment and level-list traversal (paper §4).

    For forward DAG construction, "root nodes are assigned a level of 0;
    other nodes are assigned the value one plus the maximum level of any
    parent.  A linked list is maintained for each level."  A backward
    intermediate pass then runs an outer loop from the maximum level down,
    guaranteeing every descendant is processed before its ancestors.

    The paper's conclusion 4 is that this elaborate structure buys nothing
    over a reverse walk of the instruction list; both traversals are
    implemented (here and in [Static_pass]) so the bench can time them
    against each other and a test can check they agree. *)

type t = {
  level_of : int array;
  lists : int list array;  (* nodes per level, ascending node index *)
  max_level : int;
}

(** Levels computed in program order (all arcs go forward, so every parent
    precedes its children). *)
let compute dag =
  let n = Ds_dag.Dag.length dag in
  let level_of = Array.make n 0 in
  let max_level = ref 0 in
  for i = 0 to n - 1 do
    let lvl =
      Ds_dag.Dag.fold_pred dag i (fun acc src _ _ -> Int.max acc (level_of.(src) + 1)) 0
    in
    level_of.(i) <- lvl;
    if lvl > !max_level then max_level := lvl
  done;
  let lists = Array.make (!max_level + 1) [] in
  for i = n - 1 downto 0 do
    lists.(level_of.(i)) <- i :: lists.(level_of.(i))
  done;
  { level_of; lists; max_level = !max_level }

(** Visit all nodes from the maximum level down to zero — every child is
    visited before its parents. *)
let iter_backward f t =
  for lvl = t.max_level downto 0 do
    List.iter f t.lists.(lvl)
  done

(** Visit all nodes from level zero up — every parent before its
    children. *)
let iter_forward f t =
  for lvl = 0 to t.max_level do
    List.iter f t.lists.(lvl)
  done
