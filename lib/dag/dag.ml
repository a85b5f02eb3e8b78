(** The dependence DAG, stored as a flat arena.

    Nodes are the instructions of one basic block, identified by their
    index within the block; arcs are data dependencies weighted by
    operation latency.  [add_arc] performs the paper's Table-1 column-`a`
    bookkeeping: it increments the parent's [#children] and the child's
    [#parents] counters, records whether the parent has an interlocking
    child (arc delay greater than one), and accumulates the delay sums the
    "φ delays to children / from parents" heuristics need.

    Arcs between the same pair of nodes are coalesced to the most
    constraining (largest-latency) dependency, so [#children] counts
    distinct child nodes as the heuristics intend.  Equal-latency ties
    between different kinds resolve by the fixed dependence-strength
    order RAW > WAW > WAR > CTL, so the surviving annotation is
    independent of builder visit order.

    {b Arena layout.}  The whole graph lives in three int arrays plus one
    packed per-node field array — no per-arc records, no list cells, no
    hashtable on the build path:

    - arc [id] packs [(src, dst, latency, kind)] into one int
      ([arc_pk]): bits 0–19 src, 20–39 dst, 40–59 latency, 60–61 kind —
      hence the [2^20] bounds on block length and latency;
    - adjacency is a pair of intrusive singly-linked chains threaded
      through the arc arena ([arc_nsucc]/[arc_npred]), with per-node
      heads in the field array; chains are in most-recently-added-first
      order;
    - per-node counters pack into a stride-8 int row ([nf]):
      children/parents/interlock, the two delay sums, the two delay
      maxima, the two chain heads and the two coalescing bounds;
    - coalescing is O(1) without any index: each node also records its
      highest child index and its lowest parent index, each with the arc
      that set it.  A pair whose dst lies above the source's bound, or
      whose src lies below the destination's, is a new arc; a pair equal
      to a bound is that bound's arc.  The table builders visit nodes in
      one direction, so every pair they add is decided by a bound.  Only
      an out-of-order add (dst below the source's highest child and src
      above the destination's lowest parent, as the n² builders make)
      builds an open-addressed index of arc ids, sized on first use and
      keyed by the exact packed [(src, dst)] pair, so distinct pairs
      cannot alias.  Read-only queries ([find_arc]) never build it: they
      use the bounds, then the index if one exists, then the shorter of
      the two chains — a walk over real arcs only;
    - reachability maps, when a builder maintains them, are one
      contiguous {!Ds_util.Bitset.Matrix} (row per node).

    Every pass walks arcs the same way: a cursor over arc ids.
    [succ_first]/[pred_first] give a node's chain head, [succ_next]/
    [pred_next] the next arc on the chain (-1 past the end), and
    [arc_src]/[arc_dst]/[arc_latency]/[arc_kind] read an arc's fields
    straight from its packed int.  A hot loop (verification, the static
    walks, the dynamic heuristics) is a [while] over ids, so it builds
    no closure and no arc record, and a coalesce that upgrades an arc in
    place is seen from both ends at once.  {!iter_succ}/{!iter_pred} and
    their folds make the same walk with a callback, for callers off the
    hot path.  Boxed {!arc} records exist only for the whole-graph
    [arcs]/[iter_arcs]/[find_arc] queries and for [arc]. *)

open Ds_isa
open Ds_machine

type arc = { src : int; dst : int; kind : Dep.kind; latency : int }

(* Packing bounds: src/dst/latency each take 20 bits, kind takes 2. *)
let max_nodes = 1 lsl 20
let max_latency = 1 lsl 20
let field_mask = max_nodes - 1

let kind_code = function Dep.Raw -> 0 | Dep.War -> 1 | Dep.Waw -> 2 | Dep.Ctl -> 3
let code_kind = [| Dep.Raw; Dep.War; Dep.Waw; Dep.Ctl |]

(* Dependence-strength order for equal-latency kind ties (the order
   [Pairdep.strongest_packed] ranks by): RAW > WAW > WAR > CTL. *)
let kind_rank = function Dep.Raw -> 3 | Dep.Waw -> 2 | Dep.War -> 1 | Dep.Ctl -> 0
let code_rank = [| 3; 1; 2; 0 |]  (* rank by kind code *)

let pack ~src ~dst ~kind ~latency =
  src lor (dst lsl 20) lor (latency lsl 40) lor (kind_code kind lsl 60)

let pk_src pk = pk land field_mask
let pk_dst pk = (pk lsr 20) land field_mask
let pk_latency pk = (pk lsr 40) land field_mask
let pk_code pk = pk lsr 60
let pk_kind pk = code_kind.(pk_code pk)

let arc_of_pk pk =
  { src = pk_src pk; dst = pk_dst pk; kind = pk_kind pk; latency = pk_latency pk }

(* Per-node field row (stride 8 in [nf]):
   slot 0: children (bits 0-19) | parents (bits 20-39) | interlock (bit 40)
   slot 1: sum of delays to children
   slot 2: sum of delays from parents
   slot 3: max delay to child (bits 0-19) | max delay from parent (bits 20-39)
   slot 4: succ chain head, arc id + 1 (0 = none)
   slot 5: pred chain head, arc id + 1 (0 = none)
   slot 6: highest child index + 1 (bits 0-19, 0 = none) | its arc id
           (bits 20-)
   slot 7: lowest parent index (bits 0-19, [field_mask] = none) | its
           arc id (bits 20-) *)
let stride = 8
let interlock_bit = 1 lsl 40

type t = {
  insns : Insn.t array;
  model : Latency.t;
  nf : int array;                       (* stride-8 per-node fields *)
  mutable arc_pk : int array;           (* packed (src,dst,latency,kind) *)
  mutable arc_nsucc : int array;        (* next arc id in src's chain, -1 end *)
  mutable arc_npred : int array;        (* next arc id in dst's chain, -1 end *)
  mutable n_arcs : int;
  mutable idx : int array;
      (* open-addressed arc index: slot holds arc id + 1 (0 = empty),
         keyed by the low 40 (src, dst) bits of the slot's [arc_pk].
         Empty until the first out-of-order add; linear probing at load
         factor <= 1/2 afterwards. *)
  mutable idx_mask : int;
  mutable reach : Ds_util.Bitset.Matrix.m option;
      (* descendant bit rows, when a builder maintained them *)
  mutable decode_gen : int;
      (* generation of the Pipeline decode the DAG was built from, or -1 *)
}

let create ~model insns =
  let n = Array.length insns in
  if n >= max_nodes then invalid_arg "Dag.create: block too large for arena";
  let nf = Array.make (stride * n) 0 in
  for i = 0 to n - 1 do
    nf.((stride * i) + 7) <- field_mask
  done;
  {
    insns;
    model;
    nf;
    arc_pk = [||];
    arc_nsucc = [||];
    arc_npred = [||];
    n_arcs = 0;
    idx = [||];
    idx_mask = 0;
    reach = None;
    decode_gen = -1;
  }

let length t = Array.length t.insns
let insn t i = t.insns.(i)
let insns t = t.insns
let decoded t = Pipeline.decoded ~gen:t.decode_gen t.model t.insns
let set_decode_gen t g = t.decode_gen <- g
let model t = t.model
let n_arcs t = t.n_arcs

let n_children t i = t.nf.(stride * i) land field_mask
let n_parents t i = (t.nf.(stride * i) lsr 20) land field_mask
let sum_delays_to_children t i = t.nf.((stride * i) + 1)
let sum_delays_from_parents t i = t.nf.((stride * i) + 2)
let max_delay_to_child t i = t.nf.((stride * i) + 3) land field_mask
let max_delay_from_parent t i = (t.nf.((stride * i) + 3) lsr 20) land field_mask
let interlock_with_child t i = t.nf.(stride * i) land interlock_bit <> 0

let succ_head t i = t.nf.((stride * i) + 4) - 1
let pred_head t i = t.nf.((stride * i) + 5) - 1

(* Coalescing bounds: [src]'s highest child and [dst]'s lowest parent,
   each packed with the arc that set it. *)
let max_child t i = (t.nf.((stride * i) + 6) land field_mask) - 1
let max_child_arc t i = t.nf.((stride * i) + 6) lsr 20
let min_parent t i = t.nf.((stride * i) + 7) land field_mask
let min_parent_arc t i = t.nf.((stride * i) + 7) lsr 20

(* What the bounds say about (src, dst): its arc id, [-1] when it is
   certainly new, or [-2] when they cannot tell (an out-of-order pair). *)
let bounded_id t ~src ~dst =
  let hi = max_child t src in
  if dst > hi then -1
  else if dst = hi then max_child_arc t src
  else
    let lo = min_parent t dst in
    if src < lo then -1 else if src = lo then min_parent_arc t dst else -2

(* The open-addressed index, for out-of-order pairs: an int slot table
   where each slot holds an arc id + 1, and a probe compares the full
   packed (src, dst) key of the slot's arc — distinct pairs can never
   alias, the property the old modular arc_index hashing lacked. *)
let key_mask = (1 lsl 40) - 1

(* Slot for [key] (the low 40 bits of an [arc_pk]): either its arc's
   occupied slot or the empty slot where it belongs.  Fibonacci hashing,
   then linear probing; the table never deletes, so no tombstones. *)
let idx_slot t key =
  let i = ref ((key * 0x2545F4914F6CDD1D) lsr 20 land t.idx_mask) in
  while
    let v = t.idx.(!i) in
    v <> 0 && t.arc_pk.(v - 1) land key_mask <> key
  do
    i := (!i + 1) land t.idx_mask
  done;
  !i

(* Index arc [id]; its [arc_pk] entry must already be written. *)
let idx_insert t id =
  let s = idx_slot t (t.arc_pk.(id) land key_mask) in
  t.idx.(s) <- id + 1

(* (Re)build the index over every arc with room for [arcs] at load
   factor <= 1/2. *)
let idx_rebuild t arcs =
  let size = ref 16 in
  while !size < 2 * arcs do
    size := 2 * !size
  done;
  t.idx <- Array.make !size 0;
  t.idx_mask <- !size - 1;
  for id = 0 to t.n_arcs - 1 do
    idx_insert t id
  done

(* Arc id for an out-of-order (src, dst), or -1, building the index on
   first use. *)
let indexed_id t ~src ~dst =
  if Array.length t.idx = 0 then idx_rebuild t (t.n_arcs + 1);
  t.idx.(idx_slot t (src lor (dst lsl 20))) - 1

(* Arc id for (src, dst), or -1, without building the index: the
   bounds, then the index if an out-of-order add built one, then the
   shorter of src's succ chain and dst's pred chain — a walk over real
   arcs only, never a hash that could alias distinct pairs.  Callers
   bounds-check. *)
let find_id t ~src ~dst =
  let b = bounded_id t ~src ~dst in
  if b <> -2 then b
  else if Array.length t.idx > 0 then
    t.idx.(idx_slot t (src lor (dst lsl 20))) - 1
  else if n_children t src <= n_parents t dst then begin
    let id = ref (succ_head t src) in
    while !id >= 0 && pk_dst t.arc_pk.(!id) <> dst do
      id := t.arc_nsucc.(!id)
    done;
    !id
  end
  else begin
    let id = ref (pred_head t dst) in
    while !id >= 0 && pk_src t.arc_pk.(!id) <> src do
      id := t.arc_npred.(!id)
    done;
    !id
  end

let in_range t i = i >= 0 && i < length t

let find_arc t ~src ~dst =
  if not (in_range t src && in_range t dst) then None
  else
    let id = find_id t ~src ~dst in
    if id < 0 then None else Some (arc_of_pk t.arc_pk.(id))

let has_arc t ~src ~dst =
  in_range t src && in_range t dst && find_id t ~src ~dst >= 0

(* The arc cursor: a node's first arc id on a chain, the next one, -1
   past the end, and an arc's fields read from its packed int. *)
let succ_first = succ_head
let succ_next t id = t.arc_nsucc.(id)
let pred_first = pred_head
let pred_next t id = t.arc_npred.(id)
let arc_src t id = pk_src t.arc_pk.(id)
let arc_dst t id = pk_dst t.arc_pk.(id)
let arc_latency t id = pk_latency t.arc_pk.(id)
let arc_kind t id = pk_kind t.arc_pk.(id)
let arc t id = arc_of_pk t.arc_pk.(id)

let arc_id t ~src ~dst =
  if in_range t src && in_range t dst then find_id t ~src ~dst else -1

(* Chain walks, head-first: most recently added arc first. *)
let iter_succ t i f =
  let id = ref (succ_head t i) in
  while !id >= 0 do
    let pk = t.arc_pk.(!id) in
    f (pk_dst pk) (pk_latency pk) (pk_kind pk);
    id := t.arc_nsucc.(!id)
  done

let iter_pred t i f =
  let id = ref (pred_head t i) in
  while !id >= 0 do
    let pk = t.arc_pk.(!id) in
    f (pk_src pk) (pk_latency pk) (pk_kind pk);
    id := t.arc_npred.(!id)
  done

let fold_succ t i f acc =
  let acc = ref acc and id = ref (succ_head t i) in
  while !id >= 0 do
    let pk = t.arc_pk.(!id) in
    acc := f !acc (pk_dst pk) (pk_latency pk) (pk_kind pk);
    id := t.arc_nsucc.(!id)
  done;
  !acc

let fold_pred t i f acc =
  let acc = ref acc and id = ref (pred_head t i) in
  while !id >= 0 do
    let pk = t.arc_pk.(!id) in
    acc := f !acc (pk_src pk) (pk_latency pk) (pk_kind pk);
    id := t.arc_npred.(!id)
  done;
  !acc

let ensure_arc_capacity t =
  let cap = Array.length t.arc_pk in
  if t.n_arcs >= cap then begin
    let cap' = if cap = 0 then max 4 (length t) else 2 * cap in
    let grow a =
      let a' = Array.make cap' (-1) in
      Array.blit a 0 a' 0 cap;
      a'
    in
    t.arc_pk <- grow t.arc_pk;
    t.arc_nsucc <- grow t.arc_nsucc;
    t.arc_npred <- grow t.arc_npred
  end

(** [add_arc t ~src ~dst ~kind ~latency] inserts (or upgrades) the arc.
    Self-arcs are ignored (an instruction that both uses and defines a
    resource does not depend on itself).  Returns [true] when a new arc
    was created. *)
let add_arc t ~src ~dst ~kind ~latency =
  if src = dst then false
  else begin
    if not (in_range t src && in_range t dst) then
      invalid_arg "Dag.add_arc: node index out of range";
    if latency < 0 || latency >= max_latency then
      invalid_arg "Dag.add_arc: latency out of range";
    let id =
      let b = bounded_id t ~src ~dst in
      if b = -2 then indexed_id t ~src ~dst else b
    in
    if id >= 0 then begin
      (* an arg of the enclosing trace span (dag_build), when tracing *)
      Ds_obs.Trace.count "arcs_coalesced" 1;
      let pk = t.arc_pk.(id) in
      let old_latency = pk_latency pk in
      if latency > old_latency then begin
        t.arc_pk.(id) <- pack ~src ~dst ~kind ~latency;
        (* delay-sum counters: replace the old contribution *)
        let bs = stride * src and bd = stride * dst in
        t.nf.(bs + 1) <- t.nf.(bs + 1) - old_latency + latency;
        t.nf.(bd + 2) <- t.nf.(bd + 2) - old_latency + latency;
        if latency > max_delay_to_child t src then
          t.nf.(bs + 3) <- (t.nf.(bs + 3) land lnot field_mask) lor latency;
        if latency > max_delay_from_parent t dst then
          t.nf.(bd + 3) <-
            (t.nf.(bd + 3) land field_mask) lor (latency lsl 20);
        if latency > 1 then t.nf.(bs) <- t.nf.(bs) lor interlock_bit
      end
      else if latency = old_latency && kind_rank kind > code_rank.(pk_code pk)
      then begin
        (* deterministic kind tie-break: keep the stronger dependence *)
        t.arc_pk.(id) <- (pk land lnot (3 lsl 60)) lor (kind_code kind lsl 60)
      end;
      false
    end
    else begin
      ensure_arc_capacity t;
      let id = t.n_arcs in
      let bs = stride * src and bd = stride * dst in
      t.arc_pk.(id) <- pack ~src ~dst ~kind ~latency;
      if Array.length t.idx > 0 then begin
        if 2 * (id + 1) > Array.length t.idx then idx_rebuild t (id + 1);
        idx_insert t id
      end;
      if dst > max_child t src then t.nf.(bs + 6) <- (dst + 1) lor (id lsl 20);
      if src < min_parent t dst then t.nf.(bd + 7) <- src lor (id lsl 20);
      t.arc_nsucc.(id) <- t.nf.(bs + 4) - 1;
      t.nf.(bs + 4) <- id + 1;
      t.arc_npred.(id) <- t.nf.(bd + 5) - 1;
      t.nf.(bd + 5) <- id + 1;
      (* column-`a` bookkeeping *)
      t.nf.(bs) <- t.nf.(bs) + 1;               (* children *)
      t.nf.(bd) <- t.nf.(bd) + (1 lsl 20);      (* parents *)
      t.nf.(bs + 1) <- t.nf.(bs + 1) + latency;
      t.nf.(bd + 2) <- t.nf.(bd + 2) + latency;
      if latency > max_delay_to_child t src then
        t.nf.(bs + 3) <- (t.nf.(bs + 3) land lnot field_mask) lor latency;
      if latency > max_delay_from_parent t dst then
        t.nf.(bd + 3) <- (t.nf.(bd + 3) land field_mask) lor (latency lsl 20);
      if latency > 1 then t.nf.(bs) <- t.nf.(bs) lor interlock_bit;
      t.n_arcs <- t.n_arcs + 1;
      true
    end
  end

(** Roots: nodes with no parents.  A basic block may yield several — the
    paper's "forest". *)
let roots t =
  let acc = ref [] in
  for i = length t - 1 downto 0 do
    if n_parents t i = 0 then acc := i :: !acc
  done;
  !acc

(** Leaves: nodes with no children. *)
let leaves t =
  let acc = ref [] in
  for i = length t - 1 downto 0 do
    if n_children t i = 0 then acc := i :: !acc
  done;
  !acc

(** Number of connected DAGs in the forest (undirected components). *)
let forest_size t =
  let n = length t in
  if n = 0 then 0
  else begin
    let comp = Array.make n (-1) in
    let rec assign i c =
      if comp.(i) < 0 then begin
        comp.(i) <- c;
        iter_succ t i (fun d _ _ -> assign d c);
        iter_pred t i (fun s _ _ -> assign s c)
      end
    in
    let count = ref 0 in
    for i = 0 to n - 1 do
      if comp.(i) < 0 then begin
        assign i !count;
        incr count
      end
    done;
    !count
  end

let has_terminator t =
  let n = length t in
  n > 1 && (Insn.is_branch t.insns.(n - 1) || Insn.is_call t.insns.(n - 1))

(** Add control arcs from every true leaf to a block-terminating branch so
    the branch schedules last (§2's dummy-leaf convention, realized with
    the branch itself as the sink). *)
let anchor_terminator t =
  let n = length t in
  if has_terminator t then
    for i = 0 to n - 2 do
      if n_children t i = 0 then
        ignore (add_arc t ~src:i ~dst:(n - 1) ~kind:Dep.Ctl ~latency:1)
    done

let set_reach_matrix t m = t.reach <- Some m
let reach_matrix t = t.reach

let iter_arcs f t =
  for src = 0 to length t - 1 do
    iter_succ t src (fun dst latency kind -> f { src; dst; kind; latency })
  done

let arcs t =
  let acc = ref [] in
  iter_arcs (fun a -> acc := a :: !acc) t;
  !acc

(** All arcs go from lower to higher instruction index, so the program
    order is a topological order and the graph is trivially acyclic; this
    checks the invariant (property-tested). *)
let forward_ordered t =
  let ok = ref true in
  for id = 0 to t.n_arcs - 1 do
    let pk = t.arc_pk.(id) in
    if pk_src pk >= pk_dst pk then ok := false
  done;
  !ok

(** FNV-1a (64-bit) over the canonical arena: the node count, then every
    arc's packed [(src, dst, latency, kind)] int in ascending
    [(src, dst)] order — so the digest depends only on the arc set, not
    on insertion order.  The future content-addressed cache key
    (combined with block text, builder, strategy and machine model).

    No comparison sort: each src's arcs get a slot range from the
    prefix sums of [#children], and walking the pred chains for
    dst = 0 … n−1 fills every range in ascending dst — O(n + arcs) into
    a per-domain scratch array, so the digest allocates only its
    result. *)
type fp_scratch = { mutable next : int array; mutable sorted : int array }

let fp_key = Domain.DLS.new_key (fun () -> { next = [||]; sorted = [||] })

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fingerprint t =
  let n = length t in
  let s = Domain.DLS.get fp_key in
  if Array.length s.next < n then s.next <- Array.make (max n (2 * Array.length s.next)) 0;
  if Array.length s.sorted < t.n_arcs then
    s.sorted <- Array.make (max t.n_arcs (2 * Array.length s.sorted)) 0;
  let next = s.next and sorted = s.sorted in
  let first = ref 0 in
  for src = 0 to n - 1 do
    next.(src) <- !first;
    first := !first + n_children t src
  done;
  for dst = 0 to n - 1 do
    let id = ref (pred_head t dst) in
    while !id >= 0 do
      let pk = t.arc_pk.(!id) in
      let src = pk_src pk in
      sorted.(next.(src)) <- pk;
      next.(src) <- next.(src) + 1;
      id := t.arc_npred.(!id)
    done
  done;
  (* the node count, then the sorted arcs, 8 little-endian bytes each *)
  let h = ref fnv_offset in
  for k = -1 to t.n_arcs - 1 do
    let v = if k < 0 then n else sorted.(k) in
    for byte = 0 to 7 do
      h :=
        Int64.mul
          (Int64.logxor !h (Int64.of_int ((v lsr (8 * byte)) land 0xff)))
          fnv_prime
    done
  done;
  !h

let pp fmt t =
  Format.fprintf fmt "DAG: %d nodes, %d arcs@\n" (length t) t.n_arcs;
  iter_arcs
    (fun a ->
      Format.fprintf fmt "  %d -> %d  %s %d@\n" a.src a.dst
        (Dep.kind_to_string a.kind) a.latency)
    t
