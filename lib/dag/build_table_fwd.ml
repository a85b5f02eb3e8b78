(** Table-building DAG construction, forward pass (Krishnamurthy-like).

    The forward analogue of the backward algorithm the paper quotes from
    Hunnicutt, "with resource uses processed before definitions":

    - a use of resource [r] draws a RAW arc from [r]'s last definition and
      joins [r]'s uselist;
    - a definition of [r] draws WAR arcs from every pending use (or, if
      there are none, a WAW arc from the previous definition), then becomes
      the recorded definition and clears the uselist.

    Because the table erases all but the most recent definition/uses, most
    transitive arcs are omitted — but WAR-then-RAW-covered direct RAW arcs
    (Figure 1) are retained, which the paper argues is exactly right.

    Memory references of *different* symbolic expressions can still alias
    (different base registers, §2).  May-alias is not transitive, so those
    cross-expression dependencies cannot reuse the clearing logic: a
    definition additionally draws arcs against every may-aliasing entry's
    last definition and pending uses, leaving that entry's state intact.
    Only an expression's own definition clears its uselist.

    The pass is allocation-free per block: it walks the int arrays of the
    domain's {!Ds_machine.Pipeline.decode} of the block (which scoring
    then reuses), the table is the flat per-domain arena of {!Res_table},
    and all iteration is over indices — no closures, lists or options on
    the per-instruction path. *)

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
  for j = 0 to Array.length insns - 1 do
    let child = insns.(j) in
    (* process resources used *)
    let u0 = use_start.(j) in
    for u = u0 to use_start.(j + 1) - 1 do
      let use_pos = u - u0 in
      let own = Res_table.lookup table use_ids.(u) in
      let res = Res_table.resource table own in
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
      let nc = Res_table.cross_into table ~self:own in
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
    let d0 = def_start.(j) in
    for d = d0 to def_start.(j + 1) - 1 do
      let def_pos = d - d0 in
      let own = Res_table.lookup table def_ids.(d) in
      let res = Res_table.resource table own in
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
      let nc = Res_table.cross_into table ~self:own in
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
