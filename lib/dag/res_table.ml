(** The resource table used by table-building DAG construction.

    "Table building is an approach that keeps a record of the last
    definition of a resource and the set of current uses" (§2).  One entry
    per canonical resource; memory entries additionally participate in
    alias iteration, so an access to one symbolic expression can create
    arcs against every may-aliasing expression already in the table — the
    variable-length growth the paper measured on fpppp.

    Flat arena layout (see res_table.mli for the contract): resources
    intern to dense ids through a per-domain {!Ds_isa.Resource.Ids} —
    fixed ids for the finitely many register/CC resources, hash-interned
    ids for symbolic memory expressions — and
    all per-entry state (packed definition, uselist chain head) lives in
    per-domain arrays.  A per-entry epoch stamp makes per-block reset
    lazy: starting a new block is a single epoch bump, and an entry's
    state is implicitly empty until first touched under the new epoch.
    Uselists are intrusive chains through a pooled [use_pk]/[use_next]
    arena rewound per block.  The interning table persists across blocks
    (and grow across a corpus run exactly as the paper's variable-length
    table does on fpppp); the per-block state costs no allocation at
    all. *)

open Ds_isa

type scratch = {
  mutable epoch : int;
  (* per-entry state, indexed by id; valid iff stamp.(id) = epoch *)
  mutable stamp : int array;
  mutable def : int array;       (* (node lsl 8) lor pos, or -1 *)
  mutable head : int array;      (* uselist chain head in the pool, or -1 *)
  (* interning (persists across blocks) *)
  ids : Resource.Ids.t;
  (* per-block bookkeeping *)
  mutable n_touched : int;
  mutable mem_ids : int array;   (* entries touched this block that are memory *)
  mutable n_mem : int;
  (* uselist pool, rewound per block *)
  mutable use_pk : int array;    (* (node lsl 8) lor pos *)
  mutable use_next : int array;
  mutable n_uses : int;
  (* iteration buffers *)
  mutable sort_buf : int array;
  mutable cross_buf : int array;
  scan : Insn.Scan.buf;
}

let fresh_scratch () =
  { epoch = 0;
    stamp = Array.make 128 (-1);
    def = Array.make 128 (-1);
    head = Array.make 128 (-1);
    ids = Resource.Ids.create ();
    n_touched = 0;
    mem_ids = Array.make 16 0;
    n_mem = 0;
    use_pk = Array.make 64 0;
    use_next = Array.make 64 (-1);
    n_uses = 0;
    sort_buf = Array.make 16 0;
    cross_buf = Array.make 16 0;
    scan = Insn.Scan.create () }

let scratch_key = Domain.DLS.new_key fresh_scratch

type t = { strategy : Disambiguate.t; s : scratch }

let create strategy =
  let s = Domain.DLS.get scratch_key in
  s.epoch <- s.epoch + 1;
  s.n_touched <- 0;
  s.n_mem <- 0;
  s.n_uses <- 0;
  { strategy; s }

(* observability: table lookups and alias-scan lengths — the cost the
   paper's §6 asymmetry experiment is about *)
let probe_counter = Ds_obs.Metrics.counter "dag.table_probes"
let alias_scan_counter = Ds_obs.Metrics.counter "dag.alias_entries_scanned"

let grow_int_array a len fill =
  let grown = Array.make len fill in
  Array.blit a 0 grown 0 (Array.length a);
  grown

let ensure_entry_capacity s id =
  if id >= Array.length s.stamp then begin
    let len = max (id + 1) (2 * Array.length s.stamp) in
    (* fresh stamps read as "not this epoch", i.e. empty *)
    s.stamp <- grow_int_array s.stamp len (-1);
    s.def <- grow_int_array s.def len (-1);
    s.head <- grow_int_array s.head len (-1)
  end

(* first touch under this epoch: reset the entry's state and, for
   memory resources, enlist it for alias scans — the legacy table did
   this when creating the hashtable entry *)
let touch s id =
  ensure_entry_capacity s id;
  if s.stamp.(id) <> s.epoch then begin
    s.stamp.(id) <- s.epoch;
    s.def.(id) <- -1;
    s.head.(id) <- -1;
    s.n_touched <- s.n_touched + 1;
    if id = Resource.Ids.mem_all || id >= Resource.Ids.n_fixed then begin
      if s.n_mem >= Array.length s.mem_ids then
        s.mem_ids <- grow_int_array s.mem_ids (2 * Array.length s.mem_ids) 0;
      s.mem_ids.(s.n_mem) <- id;
      s.n_mem <- s.n_mem + 1
    end
  end

let lookup t res =
  Ds_obs.Metrics.incr probe_counter;
  let id = Resource.Ids.id t.s.ids res in
  touch t.s id;
  id

let resource t id = Resource.Ids.resource t.s.ids id
let def_pk t id = t.s.def.(id)
let set_def t id ~node ~pos = t.s.def.(id) <- (node lsl 8) lor pos
let clear_uses t id = t.s.head.(id) <- -1
let has_uses t id = t.s.head.(id) >= 0

let add_use t id ~node ~pos =
  let s = t.s in
  let cell = s.n_uses in
  if cell >= Array.length s.use_pk then begin
    let len = 2 * Array.length s.use_pk in
    s.use_pk <- grow_int_array s.use_pk len 0;
    s.use_next <- grow_int_array s.use_next len (-1)
  end;
  s.use_pk.(cell) <- (node lsl 8) lor pos;
  s.use_next.(cell) <- s.head.(id);
  s.head.(id) <- cell;
  s.n_uses <- cell + 1

let uses_into t id ~except =
  let s = t.s in
  (* collect the chain (newest first, like the legacy list) ... *)
  let n = ref 0 in
  let cur = ref s.head.(id) in
  while !cur >= 0 do
    let pk = s.use_pk.(!cur) in
    if pk lsr 8 <> except then begin
      if !n >= Array.length s.sort_buf then
        s.sort_buf <- grow_int_array s.sort_buf (2 * Array.length s.sort_buf) 0;
      s.sort_buf.(!n) <- pk;
      incr n
    end;
    cur := s.use_next.(!cur)
  done;
  (* ... then stable-insertion-sort ascending by node, reproducing the
     legacy [List.sort] (stable) on the prepend-ordered list.  Uselists
     are short and near-sorted, so this is effectively linear. *)
  for i = 1 to !n - 1 do
    let x = s.sort_buf.(i) in
    let xn = x lsr 8 in
    let j = ref (i - 1) in
    while !j >= 0 && s.sort_buf.(!j) lsr 8 > xn do
      s.sort_buf.(!j + 1) <- s.sort_buf.(!j);
      decr j
    done;
    s.sort_buf.(!j + 1) <- x
  done;
  !n

let use_node t k = t.s.sort_buf.(k) lsr 8
let use_pos t k = t.s.sort_buf.(k) land 0xff

let cross_into t ~self res =
  if t.strategy = Disambiguate.Symbolic then 0
  else if Resource.is_memory res then begin
    let s = t.s in
    if Ds_obs.Metrics.is_enabled () then
      Ds_obs.Metrics.add alias_scan_counter s.n_mem;
    let n = ref 0 in
    (* newest first, like the legacy prepend-ordered entry list *)
    for k = s.n_mem - 1 downto 0 do
      let id = s.mem_ids.(k) in
      if id <> self && Disambiguate.may_alias t.strategy res
           (Resource.Ids.resource s.ids id)
      then begin
        if !n >= Array.length s.cross_buf then
          s.cross_buf <-
            grow_int_array s.cross_buf (2 * Array.length s.cross_buf) 0;
        s.cross_buf.(!n) <- id;
        incr n
      end
    done;
    !n
  end
  else 0

let cross_id t k = t.s.cross_buf.(k)
let scan_buf t = t.s.scan
let size t = t.s.n_touched
