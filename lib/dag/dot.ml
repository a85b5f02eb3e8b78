(** Graphviz export of dependence DAGs.

    Nodes are labelled with the instruction text; arcs with dependency
    kind and latency.  Transitive arcs (when present) are drawn dashed so
    the n² construction's extra arcs are visible at a glance. *)

open Ds_machine

let escape s =
  String.concat "\\\""
    (String.split_on_char '"' (String.concat "\\\\" (String.split_on_char '\\' s)))

let kind_color = function
  | Dep.Raw -> "black"
  | Dep.War -> "blue"
  | Dep.Waw -> "red"
  | Dep.Ctl -> "gray"

(** Render a DAG to DOT.  [highlight] marks nodes (e.g. a critical path)
    with a filled style. *)
let render ?(name = "dag") ?(highlight = []) dag =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n" name);
  Buffer.add_string buf "  node [shape=box, fontname=\"monospace\", fontsize=10];\n";
  Buffer.add_string buf "  rankdir=TB;\n";
  let transitive = Hashtbl.create 64 in
  List.iter
    (fun (a : Dag.arc) -> Hashtbl.replace transitive (a.src, a.dst) ())
    (Closure.transitive_arcs dag);
  let highlighted = Hashtbl.create 16 in
  List.iter (fun i -> Hashtbl.replace highlighted i ()) highlight;
  for i = 0 to Dag.length dag - 1 do
    let insn = Dag.insn dag i in
    let label =
      escape (Printf.sprintf "%d: %s" i (String.trim (Ds_isa.Insn.to_string insn)))
    in
    let style =
      if Hashtbl.mem highlighted i then ", style=filled, fillcolor=lightyellow"
      else ""
    in
    Buffer.add_string buf (Printf.sprintf "  n%d [label=\"%s\"%s];\n" i label style)
  done;
  Dag.iter_arcs
    (fun (a : Dag.arc) ->
      let dashed =
        if Hashtbl.mem transitive (a.src, a.dst) then ", style=dashed" else ""
      in
      Buffer.add_string buf
        (Printf.sprintf "  n%d -> n%d [label=\"%s %d\", color=%s%s];\n" a.src
           a.dst (Dep.kind_to_string a.kind) a.latency (kind_color a.kind)
           dashed))
    dag;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
