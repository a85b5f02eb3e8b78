(** Transitive closures and transitive-arc accounting, from one reach
    pass.

    The pass is §2's reachability bit-map scheme run over a built DAG:
    nodes are visited from last to first, each node's row starts with its
    own bit, and its arcs are taken in ascending destination order.  An
    arc whose destination bit is already set is covered by a path
    through an earlier-taken child, so it is transitive; otherwise the
    destination's row, already complete, is ORed in.  The rows are then
    the descendant maps, and the arcs the pass does not flag are the
    DAG's transitive reduction.

    Used to verify the builders against each other (all six must induce
    the same ordering constraints), to count transitive arcs — the
    quantity that separates the n² DAGs of Table 4 from the
    table-building DAGs of Table 5 — and by reach-backward construction,
    which keeps the reduction. *)

open Ds_machine
module M = Ds_util.Bitset.Matrix

(* Arcs are packed [dst lor (latency lsl 20) lor (kind lsl 40)], with
   [transitive_bit] set once the pass has flagged the arc. *)
let kinds = [| Dep.Raw; Dep.War; Dep.Waw; Dep.Ctl |]
let kind_code = function Dep.Raw -> 0 | Dep.War -> 1 | Dep.Waw -> 2 | Dep.Ctl -> 3
let field = (1 lsl 20) - 1
let transitive_bit = 1 lsl 42

type pass = {
  rows : M.m;  (* descendant rows, each holding its own node *)
  first : int array;
      (* node [i]'s arcs are [arcs.(first.(i)) .. arcs.(first.(i + 1) - 1)] *)
  arcs : int array;  (* by source, each source's in ascending destination *)
}

(* The pass.  No comparison sort orders the arcs: each source's slot
   range comes from the prefix sums of [#children], and walking the pred
   chains of destinations 0 … n−1 fills every range in ascending order. *)
let pass dag =
  let n = Dag.length dag in
  let first = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    first.(i + 1) <- first.(i) + Dag.n_children dag i
  done;
  let next = Array.sub first 0 n in
  let arcs = Array.make (Dag.n_arcs dag) 0 in
  for dst = 0 to n - 1 do
    Dag.iter_pred dag dst (fun src latency kind ->
        arcs.(next.(src)) <- dst lor (latency lsl 20) lor (kind_code kind lsl 40);
        next.(src) <- next.(src) + 1)
  done;
  let rows = M.create ~rows:n ~cols:n in
  for src = n - 1 downto 0 do
    M.set rows src src;
    for k = first.(src) to first.(src + 1) - 1 do
      let dst = arcs.(k) land field in
      if M.mem rows src dst then arcs.(k) <- arcs.(k) lor transitive_bit
      else M.union_rows rows ~into:src ~from:dst
    done
  done;
  { rows; first; arcs }

(* [f src pk] for every arc, sources from last to first, each source's
   destinations ascending: the pass's own order *)
let iter_pass f p =
  for src = Array.length p.first - 2 downto 0 do
    for k = p.first.(src) to p.first.(src + 1) - 1 do
      f src p.arcs.(k)
    done
  done

let arc_of src pk =
  { Dag.src;
    dst = pk land field;
    kind = kinds.((pk lsr 40) land 3);
    latency = (pk lsr 20) land field }

let transitive pk = pk land transitive_bit <> 0

let descendants dag = (pass dag).rows

let reduce dag =
  let p = pass dag in
  let reduced = Dag.create ~model:(Dag.model dag) (Dag.insns dag) in
  iter_pass
    (fun src pk ->
      if not (transitive pk) then begin
        let a = arc_of src pk in
        ignore (Dag.add_arc reduced ~src ~dst:a.dst ~kind:a.kind ~latency:a.latency)
      end)
    p;
  (reduced, p.rows)

let transitive_arcs dag =
  let acc = ref [] in
  iter_pass
    (fun src pk -> if transitive pk then acc := arc_of src pk :: !acc)
    (pass dag);
  !acc

let count_transitive_arcs dag =
  Array.fold_left
    (fun c pk -> if transitive pk then c + 1 else c)
    0 (pass dag).arcs

let is_transitively_reduced dag = count_transitive_arcs dag = 0

(* [holds a b i] for every row [i] of two same-length DAGs' closures *)
let rows_agree holds a b =
  Dag.length a = Dag.length b
  &&
  let da = descendants a and db = descendants b in
  let rec from i = i < 0 || (holds da db i && from (i - 1)) in
  from (Dag.length a - 1)

let equivalent = rows_agree (fun da db i -> M.row_equal da i db i)

(* [refines a b]: closure of [b] ⊆ closure of [a] *)
let refines = rows_agree (fun da db i -> M.row_subset db i da i)
