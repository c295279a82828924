module Graph = Smrp_graph.Graph

let node_attrs tree v =
  match tree with
  | Some t when Tree.source t = v -> " [shape=doublecircle, style=filled, fillcolor=gold]"
  | Some t when Tree.is_member t v -> " [shape=box, style=filled, fillcolor=lightblue]"
  | Some t when Tree.is_on_tree t v -> " [shape=circle, style=filled, fillcolor=lightgrey]"
  | _ -> " [shape=circle]"

let network ?tree:t ?failure ?(highlight = []) g =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "graph network {\n  layout=neato;\n";
  let failed_node v = match failure with Some f -> not (Failure.node_ok f v) | None -> false in
  let failed_edge e = match failure with Some f -> not (Failure.edge_ok g f e) | None -> false in
  for v = 0 to Graph.node_count g - 1 do
    let attrs =
      if failed_node v then " [shape=circle, style=dashed, color=red]" else node_attrs t v
    in
    Buffer.add_string buf (Printf.sprintf "  %d%s;\n" v attrs)
  done;
  let on_tree_edge eid = match t with Some t -> List.mem eid (Tree.tree_edges t) | None -> false in
  Graph.iter_edges
    (fun e ->
      let style =
        if failed_edge e.Graph.id then "style=dashed, color=red, penwidth=2"
        else if List.mem e.Graph.id highlight then "style=dotted, color=blue, penwidth=2"
        else if on_tree_edge e.Graph.id then "penwidth=2.5"
        else "color=grey"
      in
      Buffer.add_string buf
        (Printf.sprintf "  %d -- %d [label=\"%g\", %s];\n" e.Graph.u e.Graph.v e.Graph.delay style))
    g;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
