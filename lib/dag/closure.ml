(** Transitive closures and transitive-arc accounting.

    Used to verify the builders against each other (all five must induce
    the same ordering constraints) and to count transitive arcs — the
    quantity that separates the n² DAGs of Table 4 from the table-building
    DAGs of Table 5. *)

(** Descendant bit maps of every node, computed in reverse index order
    (valid because arcs always point from lower to higher index). *)
let descendants dag =
  let n = Dag.length dag in
  let maps = Array.init n (fun i ->
      let b = Ds_util.Bitset.make n in
      Ds_util.Bitset.set b i;
      b)
  in
  for i = n - 1 downto 0 do
    Dag.iter_succ dag i (fun dst _ _ ->
        Ds_util.Bitset.union_into ~into:maps.(i) maps.(dst))
  done;
  maps

(** Ancestor bit maps, the forward-order dual. *)
let ancestors dag =
  let n = Dag.length dag in
  let maps = Array.init n (fun i ->
      let b = Ds_util.Bitset.make n in
      Ds_util.Bitset.set b i;
      b)
  in
  for i = 0 to n - 1 do
    Dag.iter_pred dag i (fun src _ _ ->
        Ds_util.Bitset.union_into ~into:maps.(i) maps.(src))
  done;
  maps

(** Two DAGs over the same instructions are order-equivalent when their
    transitive closures coincide. *)
let equivalent a b =
  Dag.length a = Dag.length b
  &&
  let da = descendants a and db = descendants b in
  Array.for_all2 Ds_util.Bitset.equal da db

(** An arc is transitive when its endpoints are also connected by a path
    of length at least two. *)
let transitive_arcs dag =
  let maps = descendants dag in
  let result = ref [] in
  Dag.iter_arcs
    (fun (arc : Dag.arc) ->
      let through_other =
        Dag.fold_succ dag arc.src
          (fun found mid _ _ ->
            found || (mid <> arc.dst && Ds_util.Bitset.mem maps.(mid) arc.dst))
          false
      in
      if through_other then result := arc :: !result)
    dag;
  !result

let count_transitive_arcs dag = List.length (transitive_arcs dag)

let is_transitively_reduced dag = count_transitive_arcs dag = 0

(** [refines a b]: every ordering constraint of [b] also holds in [a]
    (i.e. closure of [b] ⊆ closure of [a]). *)
let refines a b =
  let da = descendants a and db = descendants b in
  Array.length da = Array.length db
  && Array.for_all2 (fun bb ba -> Ds_util.Bitset.subset bb ba) db da
