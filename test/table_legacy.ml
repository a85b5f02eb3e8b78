(** The table builders as they stood before construction read the
    per-domain {!Ds_machine.Pipeline.decode}: each builder rescans every
    instruction with [Insn.scan_defs]/[Insn.scan_uses] and interns every
    resource occurrence through its own {!Ds_isa.Resource.Ids} table,
    with epoch-stamped per-entry state and an insertion-sorted use
    walk.  Kept verbatim as the yardstick for the differential tests,
    which require identical fingerprints, adjacency walks and
    [dag.table_probes]/[dag.alias_entries_scanned] counts.  Not for
    pipeline use. *)

open Ds_isa
open Ds_machine
open Ds_dag

module Res_table = struct
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

  (* table lookups and alias-scan lengths, the cost the paper's §6
     asymmetry experiment is about, count on the enclosing trace span *)
  let lookup t res =
    Ds_obs.Trace.count "table_probes" 1;
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
      Ds_obs.Trace.count "alias_entries_scanned" s.n_mem;
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
end

let build_fwd (opts : Opts.t) (block : Ds_cfg.Block.t) =
  let insns = block.Ds_cfg.Block.insns in
  let dag = Dag.create ~model:opts.model insns in
  let table = Res_table.create opts.strategy in
  let strategy = opts.strategy in
  let model = opts.model in
  let buf = Res_table.scan_buf table in
  let n = Array.length insns in
  for j = 0 to n - 1 do
    let child = insns.(j) in
    (* process resources used *)
    Insn.scan_uses buf child;
    for use_pos = 0 to Insn.Scan.len buf - 1 do
      let res = Disambiguate.canonical strategy (Insn.Scan.res buf use_pos) in
      let own = Res_table.lookup table res in
      (* RAW from the entry's last definition; a cross entry's latency is
         charged to that entry's own resource *)
      let dpk = Res_table.def_pk table own in
      if dpk >= 0 && dpk lsr 8 <> j then begin
        let d = dpk lsr 8 and def_pos = dpk land 0xff in
        let latency =
          model.Latency.raw ~parent:insns.(d) ~def_pos ~res ~child ~use_pos
        in
        ignore (Dag.add_arc dag ~src:d ~dst:j ~kind:Dep.Raw ~latency)
      end;
      let nc = Res_table.cross_into table ~self:own res in
      for k = 0 to nc - 1 do
        let e = Res_table.cross_id table k in
        let dpk = Res_table.def_pk table e in
        if dpk >= 0 && dpk lsr 8 <> j then begin
          let d = dpk lsr 8 and def_pos = dpk land 0xff in
          let latency =
            model.Latency.raw ~parent:insns.(d) ~def_pos
              ~res:(Res_table.resource table e) ~child ~use_pos
          in
          ignore (Dag.add_arc dag ~src:d ~dst:j ~kind:Dep.Raw ~latency)
        end
      done;
      Res_table.add_use table own ~node:j ~pos:use_pos
    done;
    (* process resources defined *)
    Insn.scan_defs buf child;
    for def_pos = 0 to Insn.Scan.len buf - 1 do
      let res = Disambiguate.canonical strategy (Insn.Scan.res buf def_pos) in
      let own = Res_table.lookup table res in
      (* own entry: the paper's algorithm, including the clear — WAR from
         every pending use in ascending order, or a WAW from the previous
         definition when no use is pending *)
      let np = Res_table.uses_into table own ~except:j in
      if np > 0 then
        for k = 0 to np - 1 do
          let u = Res_table.use_node table k in
          let latency = model.Latency.war ~parent:insns.(u) ~res ~child in
          ignore (Dag.add_arc dag ~src:u ~dst:j ~kind:Dep.War ~latency)
        done
      else begin
        let dpk = Res_table.def_pk table own in
        if dpk >= 0 && dpk lsr 8 <> j then begin
          let d = dpk lsr 8 in
          let latency = model.Latency.waw ~parent:insns.(d) ~res ~child in
          ignore (Dag.add_arc dag ~src:d ~dst:j ~kind:Dep.Waw ~latency)
        end
      end;
      Res_table.clear_uses table own;
      Res_table.set_def table own ~node:j ~pos:def_pos;
      (* cross-aliasing entries: conservative arcs, no state change; WAR
         latencies are charged to the defined resource, WAW latencies to
         the aliasing entry's own resource *)
      let nc = Res_table.cross_into table ~self:own res in
      for k = 0 to nc - 1 do
        let e = Res_table.cross_id table k in
        let nu = Res_table.uses_into table e ~except:j in
        for m = 0 to nu - 1 do
          let u = Res_table.use_node table m in
          let latency = model.Latency.war ~parent:insns.(u) ~res ~child in
          ignore (Dag.add_arc dag ~src:u ~dst:j ~kind:Dep.War ~latency)
        done;
        let dpk = Res_table.def_pk table e in
        if dpk >= 0 && dpk lsr 8 <> j then begin
          let d = dpk lsr 8 in
          let latency =
            model.Latency.waw ~parent:insns.(d)
              ~res:(Res_table.resource table e) ~child
          in
          ignore (Dag.add_arc dag ~src:d ~dst:j ~kind:Dep.Waw ~latency)
        end
      done
    done
  done;
  if opts.anchor_branch then Dag.anchor_terminator dag;
  dag

let build_bwd (opts : Opts.t) (block : Ds_cfg.Block.t) =
  let insns = block.Ds_cfg.Block.insns in
  let dag = Dag.create ~model:opts.model insns in
  let table = Res_table.create opts.strategy in
  let strategy = opts.strategy in
  let model = opts.model in
  let buf = Res_table.scan_buf table in
  let n = Array.length insns in
  for j = n - 1 downto 0 do
    let parent = insns.(j) in
    (* process resources defined *)
    Insn.scan_defs buf parent;
    for def_pos = 0 to Insn.Scan.len buf - 1 do
      let res = Disambiguate.canonical strategy (Insn.Scan.res buf def_pos) in
      let own = Res_table.lookup table res in
      (* own entry: the paper's algorithm, including the clear *)
      if not (Res_table.has_uses table own) then begin
        let dpk = Res_table.def_pk table own in
        if dpk >= 0 && dpk lsr 8 <> j then begin
          let d = dpk lsr 8 in
          let latency = model.Latency.waw ~parent ~res ~child:insns.(d) in
          ignore (Dag.add_arc dag ~src:j ~dst:d ~kind:Dep.Waw ~latency)
        end
      end
      else begin
        let nu = Res_table.uses_into table own ~except:j in
        for k = 0 to nu - 1 do
          let u = Res_table.use_node table k in
          let latency =
            model.Latency.raw ~parent ~def_pos ~res ~child:insns.(u)
              ~use_pos:(Res_table.use_pos table k)
          in
          ignore (Dag.add_arc dag ~src:j ~dst:u ~kind:Dep.Raw ~latency)
        done
      end;
      Res_table.clear_uses table own;
      Res_table.set_def table own ~node:j ~pos:def_pos;
      (* cross-aliasing entries: conservative arcs, no state change *)
      let nc = Res_table.cross_into table ~self:own res in
      for k = 0 to nc - 1 do
        let e = Res_table.cross_id table k in
        let nu = Res_table.uses_into table e ~except:j in
        for m = 0 to nu - 1 do
          let u = Res_table.use_node table m in
          let latency =
            model.Latency.raw ~parent ~def_pos ~res ~child:insns.(u)
              ~use_pos:(Res_table.use_pos table m)
          in
          ignore (Dag.add_arc dag ~src:j ~dst:u ~kind:Dep.Raw ~latency)
        done;
        let dpk = Res_table.def_pk table e in
        if dpk >= 0 && dpk lsr 8 <> j then begin
          let d = dpk lsr 8 in
          let latency = model.Latency.waw ~parent ~res ~child:insns.(d) in
          ignore (Dag.add_arc dag ~src:j ~dst:d ~kind:Dep.Waw ~latency)
        end
      done
    done;
    (* process resources used *)
    Insn.scan_uses buf parent;
    for use_pos = 0 to Insn.Scan.len buf - 1 do
      let res = Disambiguate.canonical strategy (Insn.Scan.res buf use_pos) in
      let own = Res_table.lookup table res in
      let dpk = Res_table.def_pk table own in
      if dpk >= 0 && dpk lsr 8 <> j then begin
        let d = dpk lsr 8 in
        let latency = model.Latency.war ~parent ~res ~child:insns.(d) in
        ignore (Dag.add_arc dag ~src:j ~dst:d ~kind:Dep.War ~latency)
      end;
      let nc = Res_table.cross_into table ~self:own res in
      for k = 0 to nc - 1 do
        let e = Res_table.cross_id table k in
        let dpk = Res_table.def_pk table e in
        if dpk >= 0 && dpk lsr 8 <> j then begin
          let d = dpk lsr 8 in
          let latency = model.Latency.war ~parent ~res ~child:insns.(d) in
          ignore (Dag.add_arc dag ~src:j ~dst:d ~kind:Dep.War ~latency)
        end
      done;
      Res_table.add_use table own ~node:j ~pos:use_pos
    done
  done;
  if opts.anchor_branch then Dag.anchor_terminator dag;
  dag
