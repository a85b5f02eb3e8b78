(** The resource table used by table-building DAG construction.

    "Table building is an approach that keeps a record of the last
    definition of a resource and the set of current uses" (§2).  One entry
    per canonical resource; memory entries additionally participate in
    alias iteration, so an access to one symbolic expression can create
    arcs against every may-aliasing expression already in the table — the
    variable-length growth the paper measured on fpppp.

    Flat layout (see res_table.mli for the contract): the entries are the
    block-local resource ids of the block's {!Ds_machine.Pipeline.decode},
    plus one [Mem_all] entry under [Serialize_all] when the block names
    none itself.  All per-entry state (packed definition, uselist chain
    head, alias-scan enlistment) lives in per-domain arrays filled for
    each block, and uselists are intrusive chains through a pooled
    [use_pk]/[use_next] arena rewound per block, so a block's table
    costs no allocation at all. *)

open Ds_isa
module Pipeline = Ds_machine.Pipeline

type t = {
  mutable strategy : Disambiguate.t;
  mutable alias_scans : bool;      (* strategy <> Symbolic *)
  (* per entry, valid below [n_entries] *)
  mutable n_entries : int;
  mutable entry_of : int array;    (* decode resource id -> entry *)
  mutable res : Resource.t array;
  mutable def : int array;         (* (node lsl 8) lor pos, or -1 *)
  mutable head : int array;        (* uselist chain head in the pool, or -1 *)
  mutable listed : Bytes.t;        (* looked up yet (alias scans only) *)
  (* memory entries in the order the builder first looked them up *)
  mutable mem_ids : int array;
  mutable n_mem : int;
  (* uselist pool, rewound per block *)
  mutable use_pk : int array;      (* (node lsl 8) lor pos *)
  mutable use_next : int array;
  mutable n_uses : int;
  (* iteration buffers *)
  mutable use_buf : int array;
  mutable cross_buf : int array;
}

let fresh_scratch () =
  { strategy = Disambiguate.Symbolic;
    alias_scans = false;
    n_entries = 0;
    entry_of = Array.make 64 0;
    res = Array.make 64 Resource.Ctrl;
    def = Array.make 64 (-1);
    head = Array.make 64 (-1);
    listed = Bytes.make 64 '\000';
    mem_ids = Array.make 16 0;
    n_mem = 0;
    use_pk = Array.make 64 0;
    use_next = Array.make 64 (-1);
    n_uses = 0;
    use_buf = Array.make 16 0;
    cross_buf = Array.make 16 0 }

let scratch_key = Domain.DLS.new_key fresh_scratch

let grow a len fill =
  let grown = Array.make (max len (2 * Array.length a)) fill in
  Array.blit a 0 grown 0 (Array.length a);
  grown

let create strategy (sc : Pipeline.scan) =
  let t = Domain.DLS.get scratch_key in
  let n_res = sc.Pipeline.n_res in
  (* room for every decode id plus a [Mem_all] entry *)
  if n_res + 1 > Array.length t.def then begin
    t.entry_of <- grow t.entry_of (n_res + 1) 0;
    t.res <- grow t.res (n_res + 1) Resource.Ctrl;
    t.def <- grow t.def (n_res + 1) (-1);
    t.head <- grow t.head (n_res + 1) (-1);
    t.listed <- Bytes.make (Array.length t.def) '\000'
  end;
  t.strategy <- strategy;
  t.alias_scans <- strategy <> Disambiguate.Symbolic;
  Array.blit sc.Pipeline.res 0 t.res 0 n_res;
  for r = 0 to n_res - 1 do
    t.entry_of.(r) <- r
  done;
  t.n_entries <- n_res;
  if strategy = Disambiguate.Serialize_all then begin
    (* every memory expression is the one [Mem_all] entry *)
    let mem_all = ref (-1) in
    for r = 0 to n_res - 1 do
      match t.res.(r) with Resource.Mem_all -> mem_all := r | _ -> ()
    done;
    if !mem_all < 0 then begin
      mem_all := n_res;
      t.res.(n_res) <- Resource.Mem_all;
      t.n_entries <- n_res + 1
    end;
    for r = 0 to n_res - 1 do
      match t.res.(r) with
      | Resource.Mem _ -> t.entry_of.(r) <- !mem_all
      | _ -> ()
    done
  end;
  Array.fill t.def 0 t.n_entries (-1);
  Array.fill t.head 0 t.n_entries (-1);
  Bytes.fill t.listed 0 t.n_entries '\000';
  t.n_mem <- 0;
  t.n_uses <- 0;
  let n = Array.length sc.Pipeline.insns in
  (* table lookups and alias-scan lengths are the cost the paper's §6
     asymmetry experiment is about: both ride on the dag_build span *)
  Ds_obs.Trace.count "table_probes"
    (sc.Pipeline.def_start.(n) + sc.Pipeline.use_start.(n));
  t

(* first lookup of a memory entry enlists it for alias scans, in lookup
   order *)
let enlist t e =
  Bytes.unsafe_set t.listed e '\001';
  if Resource.is_memory t.res.(e) then begin
    if t.n_mem >= Array.length t.mem_ids then
      t.mem_ids <- grow t.mem_ids (t.n_mem + 1) 0;
    t.mem_ids.(t.n_mem) <- e;
    t.n_mem <- t.n_mem + 1
  end

let lookup t r =
  let e = t.entry_of.(r) in
  if t.alias_scans && Bytes.get t.listed e = '\000' then enlist t e;
  e

let resource t e = t.res.(e)
let def_pk t e = t.def.(e)
let set_def t e ~node ~pos = t.def.(e) <- (node lsl 8) lor pos
let clear_uses t e = t.head.(e) <- -1
let has_uses t e = t.head.(e) >= 0

let add_use t e ~node ~pos =
  let cell = t.n_uses in
  if cell >= Array.length t.use_pk then begin
    t.use_pk <- grow t.use_pk (cell + 1) 0;
    t.use_next <- grow t.use_next (cell + 1) (-1)
  end;
  t.use_pk.(cell) <- (node lsl 8) lor pos;
  t.use_next.(cell) <- t.head.(e);
  t.head.(e) <- cell;
  t.n_uses <- cell + 1

let uses_into t e ~except =
  (* collect the chain, newest first ... *)
  let n = ref 0 in
  let cur = ref t.head.(e) in
  while !cur >= 0 do
    let pk = t.use_pk.(!cur) in
    if pk lsr 8 <> except then begin
      if !n >= Array.length t.use_buf then t.use_buf <- grow t.use_buf (!n + 1) 0;
      t.use_buf.(!n) <- pk;
      incr n
    end;
    cur := t.use_next.(!cur)
  done;
  (* ... and reverse it when it descends (a forward builder's chain):
     the result ascends by node, and uses by one node stay together *)
  let n = !n in
  let b = t.use_buf in
  if n > 1 && b.(0) lsr 8 > b.(n - 1) lsr 8 then
    for k = 0 to (n / 2) - 1 do
      let x = b.(k) in
      b.(k) <- b.(n - 1 - k);
      b.(n - 1 - k) <- x
    done;
  n

let use_node t k = t.use_buf.(k) lsr 8
let use_pos t k = t.use_buf.(k) land 0xff

let cross_into t ~self =
  let res = t.res.(self) in
  if (not t.alias_scans) || not (Resource.is_memory res) then 0
  else begin
    Ds_obs.Trace.count "alias_entries_scanned" t.n_mem;
    let n = ref 0 in
    (* newest first by first lookup, the order arcs are added in *)
    for k = t.n_mem - 1 downto 0 do
      let e = t.mem_ids.(k) in
      if e <> self && Disambiguate.may_alias t.strategy res t.res.(e) then begin
        if !n >= Array.length t.cross_buf then
          t.cross_buf <- grow t.cross_buf (!n + 1) 0;
        t.cross_buf.(!n) <- e;
        incr n
      end
    done;
    !n
  end

let cross_id t k = t.cross_buf.(k)
