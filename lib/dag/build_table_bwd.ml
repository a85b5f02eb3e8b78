(** Table-building DAG construction, backward pass.

    A direct implementation of the algorithm the paper quotes (§2, from
    Hunnicutt): instructions are visited in reverse program order, so the
    table records the *earliest-seen later* definition and the pending
    later uses of each resource.  Definitions are processed before uses:

    {v
    /* process resources defined */
    if (resource[definition_entry] not empty and resource[uselist] is empty)
        add_arc(WAW, newnode, resource[definition_entry]);
    foreach (uselist_entry in resource[uselist] in ascending order) do {
        add_arc(RAW, newnode, uselist_entry);
        delete uselist_entry from resource[uselist];
    }
    insert newnode as resource[definition_entry];
    /* process resources used */
    if (resource[definition_entry] not empty)
        add_arc(WAR, newnode, resource[definition_entry]);
    add newnode as a uselist_entry into resource[uselist];
    v}

    As in the forward builder, cross-expression memory aliasing (which is
    not transitive) is handled by drawing conservative arcs against every
    may-aliasing entry's recorded definition and uses without touching
    that entry's state; only an expression's own definition clears its
    uselist.

    The paper pairs this builder with a plain linked-list first pass, which
    eliminates the child-revisitation overhead of the forward approaches
    before the backward heuristic pass (§6, third approach).

    Like the forward pass, this is allocation-free per block: it walks the
    domain's top-down {!Ds_machine.Pipeline.decode} of the block from the
    bottom, and the table is the flat per-domain arena of
    {!Res_table}. *)

open Ds_machine

let build (opts : Opts.t) (block : Ds_cfg.Block.t) =
  let insns = block.Ds_cfg.Block.insns in
  let model = opts.model in
  let dag = Dag.create ~model insns in
  let sc = Pipeline.decode model insns in
  Dag.set_decode_gen dag sc.Pipeline.gen;
  let table = Res_table.create opts.strategy sc in
  let def_start = sc.Pipeline.def_start and def_ids = sc.Pipeline.def_ids in
  let use_start = sc.Pipeline.use_start and use_ids = sc.Pipeline.use_ids in
  for j = Array.length insns - 1 downto 0 do
    let parent = insns.(j) in
    (* process resources defined *)
    let d0 = def_start.(j) in
    for d = d0 to def_start.(j + 1) - 1 do
      let def_pos = d - d0 in
      let own = Res_table.lookup table def_ids.(d) in
      let res = Res_table.resource table own in
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
      let nc = Res_table.cross_into table ~self:own in
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
    let u0 = use_start.(j) in
    for u = u0 to use_start.(j + 1) - 1 do
      let use_pos = u - u0 in
      let own = Res_table.lookup table use_ids.(u) in
      let res = Res_table.resource table own in
      let dpk = Res_table.def_pk table own in
      if dpk >= 0 && dpk lsr 8 <> j then begin
        let d = dpk lsr 8 in
        let latency = model.Latency.war ~parent ~res ~child:insns.(d) in
        ignore (Dag.add_arc dag ~src:j ~dst:d ~kind:Dep.War ~latency)
      end;
      let nc = Res_table.cross_into table ~self:own in
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
