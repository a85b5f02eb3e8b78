(** The pre-arena DAG representation, kept verbatim as a yardstick.

    This is the pointer-and-list [Dag.t] that shipped before the arena
    refactor: per-node [arc list] adjacency, boxed counter arrays, and an
    [arc_index] hashtable keyed [src * n + dst].  It exists for the
    differential tests only, which replay arena-built DAGs into this
    structure and require identical arcs and counters (and which
    demonstrate the two historical bugs this module faithfully
    preserves: the unbounded [find_arc] key that aliases out-of-range
    queries onto in-range pairs, and the insertion-order-dependent
    [kind] kept on an equal-latency coalesce).

    Do not use it in the pipeline. *)

open Ds_isa
open Ds_machine
open Ds_dag

module Tbl = Hashtbl.Make (Resource)

type arc = { src : int; dst : int; kind : Dep.kind; latency : int }

type t = {
  insns : Insn.t array;
  model : Latency.t;
  succs : arc list array;       (* children, most recently added first *)
  preds : arc list array;       (* parents *)
  n_children : int array;
  n_parents : int array;
  sum_delays_to_children : int array;
  max_delay_to_child : int array;
  sum_delays_from_parents : int array;
  max_delay_from_parent : int array;
  interlock_with_child : bool array;  (* any outgoing arc with delay > 1 *)
  mutable n_arcs : int;
  arc_index : (int, arc) Hashtbl.t;   (* src * n + dst -> arc *)
}

let create ~model insns =
  let n = Array.length insns in
  {
    insns;
    model;
    succs = Array.make n [];
    preds = Array.make n [];
    n_children = Array.make n 0;
    n_parents = Array.make n 0;
    sum_delays_to_children = Array.make n 0;
    max_delay_to_child = Array.make n 0;
    sum_delays_from_parents = Array.make n 0;
    max_delay_from_parent = Array.make n 0;
    interlock_with_child = Array.make n false;
    n_arcs = 0;
    arc_index = Hashtbl.create (4 * max 1 n);
  }

let length t = Array.length t.insns
let insn t i = t.insns.(i)
let model t = t.model
let succs t i = t.succs.(i)
let preds t i = t.preds.(i)
let n_children t i = t.n_children.(i)
let n_parents t i = t.n_parents.(i)
let n_arcs t = t.n_arcs
let sum_delays_to_children t i = t.sum_delays_to_children.(i)
let max_delay_to_child t i = t.max_delay_to_child.(i)
let sum_delays_from_parents t i = t.sum_delays_from_parents.(i)
let max_delay_from_parent t i = t.max_delay_from_parent.(i)
let interlock_with_child t i = t.interlock_with_child.(i)

(* The historical aliasing bug, preserved: no bounds check, so e.g. with
   n = 10 the query (src = 0, dst = 13) keys to 13 — the slot of the
   in-range pair (src = 1, dst = 3). *)
let find_arc t ~src ~dst =
  Hashtbl.find_opt t.arc_index ((src * length t) + dst)

let has_arc t ~src ~dst = find_arc t ~src ~dst <> None

let account t arc ~fresh =
  let { src; dst; latency; _ } = arc in
  if fresh then begin
    t.n_children.(src) <- t.n_children.(src) + 1;
    t.n_parents.(dst) <- t.n_parents.(dst) + 1;
    t.n_arcs <- t.n_arcs + 1
  end;
  t.sum_delays_to_children.(src) <- t.sum_delays_to_children.(src) + latency;
  t.max_delay_to_child.(src) <- max t.max_delay_to_child.(src) latency;
  t.sum_delays_from_parents.(dst) <- t.sum_delays_from_parents.(dst) + latency;
  t.max_delay_from_parent.(dst) <- max t.max_delay_from_parent.(dst) latency;
  if latency > 1 then t.interlock_with_child.(src) <- true

(* The historical tie bug, preserved: an equal-latency coalesce keeps
   whichever kind was inserted first, so the surviving kind depends on
   builder visit order. *)
let add_arc t ~src ~dst ~kind ~latency =
  if src = dst then false
  else begin
    assert (src >= 0 && dst >= 0 && src < length t && dst < length t);
    let key = (src * length t) + dst in
    match Hashtbl.find_opt t.arc_index key with
    | Some existing ->
        if latency > existing.latency then begin
          let upgraded = { existing with kind; latency } in
          Hashtbl.replace t.arc_index key upgraded;
          t.succs.(src) <-
            List.map (fun a -> if a.dst = dst then upgraded else a) t.succs.(src);
          t.preds.(dst) <-
            List.map (fun a -> if a.src = src then upgraded else a) t.preds.(dst);
          t.sum_delays_to_children.(src) <-
            t.sum_delays_to_children.(src) - existing.latency;
          t.sum_delays_from_parents.(dst) <-
            t.sum_delays_from_parents.(dst) - existing.latency;
          account t upgraded ~fresh:false
        end;
        false
    | None ->
        let arc = { src; dst; kind; latency } in
        Hashtbl.add t.arc_index key arc;
        t.succs.(src) <- arc :: t.succs.(src);
        t.preds.(dst) <- arc :: t.preds.(dst);
        account t arc ~fresh:true;
        true
  end

let roots t =
  let acc = ref [] in
  for i = length t - 1 downto 0 do
    if t.n_parents.(i) = 0 then acc := i :: !acc
  done;
  !acc

let leaves t =
  let acc = ref [] in
  for i = length t - 1 downto 0 do
    if t.n_children.(i) = 0 then acc := i :: !acc
  done;
  !acc

let anchor_terminator t =
  let n = length t in
  if n > 1 && (Insn.is_branch t.insns.(n - 1) || Insn.is_call t.insns.(n - 1))
  then
    for i = 0 to n - 2 do
      if t.n_children.(i) = 0 then
        ignore (add_arc t ~src:i ~dst:(n - 1) ~kind:Dep.Ctl ~latency:1)
    done

let iter_arcs f t = Array.iter (fun arcs -> List.iter f arcs) t.succs

let arcs t =
  let acc = ref [] in
  iter_arcs (fun a -> acc := a :: !acc) t;
  !acc

(** The pre-arena resource table: one heap record per resource with a
    boxed definition option and a use list, plus a memory-entry list for
    alias scans. *)
module Table = struct
  type entry = {
    resource : Resource.t;
    mutable def_ : (int * int) option;  (* node index, def position *)
    mutable uses : (int * int) list;    (* node index, use position *)
  }

  type table = {
    strategy : Disambiguate.t;
    entries : entry Tbl.t;
    mutable mem_entries : entry list;
  }

  let create strategy =
    { strategy; entries = Tbl.create 64; mem_entries = [] }

  let entry t res =
    match Tbl.find_opt t.entries res with
    | Some e -> e
    | None ->
        let e = { resource = res; def_ = None; uses = [] } in
        Tbl.add t.entries res e;
        if Resource.is_memory res then t.mem_entries <- e :: t.mem_entries;
        e

  let cross_aliasing t res =
    if t.strategy = Disambiguate.Symbolic then []
    else if Resource.is_memory res then
      List.filter
        (fun e ->
          not (Resource.equal e.resource res)
          && Disambiguate.may_alias t.strategy res e.resource)
        t.mem_entries
    else []

  let uses_ascending e = List.sort (fun (a, _) (b, _) -> Int.compare a b) e.uses
end

(** The pre-arena forward table builder, verbatim, against this legacy
    structure. *)
let build_table_fwd (opts : Opts.t) (block : Ds_cfg.Block.t) =
  let insns = block.Ds_cfg.Block.insns in
  let dag = create ~model:opts.model insns in
  let table = Table.create opts.strategy in
  let n = Array.length insns in
  for j = 0 to n - 1 do
    let child = insns.(j) in
    (* process resources used *)
    List.iter
      (fun (res, use_pos) ->
        let res = Disambiguate.canonical opts.strategy res in
        let raw_from (e : Table.entry) =
          match e.def_ with
          | Some (d, def_pos) when d <> j ->
              let latency =
                opts.model.Latency.raw ~parent:insns.(d) ~def_pos
                  ~res:e.resource ~child ~use_pos
              in
              ignore (add_arc dag ~src:d ~dst:j ~kind:Dep.Raw ~latency)
          | Some _ | None -> ()
        in
        let own = Table.entry table res in
        raw_from own;
        List.iter raw_from (Table.cross_aliasing table res);
        own.uses <- (j, use_pos) :: own.uses)
      (Insn.uses_with_pos child);
    (* process resources defined *)
    List.iter
      (fun (res, def_pos) ->
        let res = Disambiguate.canonical opts.strategy res in
        let war_from_uses uses =
          List.iter
            (fun (u, _) ->
              if u <> j then begin
                let latency =
                  opts.model.Latency.war ~parent:insns.(u) ~res ~child
                in
                ignore (add_arc dag ~src:u ~dst:j ~kind:Dep.War ~latency)
              end)
            uses
        in
        let waw_from (e : Table.entry) =
          match e.def_ with
          | Some (d, _) when d <> j ->
              let latency =
                opts.model.Latency.waw ~parent:insns.(d) ~res:e.resource ~child
              in
              ignore (add_arc dag ~src:d ~dst:j ~kind:Dep.Waw ~latency)
          | Some _ | None -> ()
        in
        let own = Table.entry table res in
        let pending = List.filter (fun (u, _) -> u <> j) own.uses in
        if pending <> [] then
          war_from_uses (Table.uses_ascending { own with uses = pending })
        else waw_from own;
        own.uses <- [];
        own.def_ <- Some (j, def_pos);
        List.iter
          (fun (e : Table.entry) ->
            war_from_uses (Table.uses_ascending e);
            waw_from e)
          (Table.cross_aliasing table res))
      (List.mapi (fun pos r -> (r, pos)) (Insn.defs child))
  done;
  if opts.anchor_branch then anchor_terminator dag;
  dag
