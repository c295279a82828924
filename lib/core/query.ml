module Graph = Smrp_graph.Graph
module Dijkstra = Smrp_graph.Dijkstra

let candidates ?ws t ~joiner ~spf =
  let g = Tree.graph t in
  let collect acc (nb, joining_edge) =
    if Tree.is_on_tree t nb then
      (* The neighbour itself answers immediately. *)
      let e = Graph.edge g joining_edge in
      let attach_delay = e.Graph.delay in
      {
        Smrp.merge = nb;
        attach_nodes = [ nb; joiner ];
        attach_edges = [ joining_edge ];
        attach_delay;
        total_delay = attach_delay +. Tree.delay_to_source t nb;
        shr = Tree.shr t nb;
      }
      :: acc
    else begin
      match Dijkstra.shortest_path ?workspace:ws g ~src:nb ~dst:(Tree.source t) ~lower:spf with
      | None -> acc
      | Some (_, nodes, edges) -> (
          (* Forward along nb's unicast path until the first on-tree node;
             reject answers whose relay path loops back through the joiner
             itself. *)
          match Spf.graft_path ~accept:(Tree.is_on_tree t) nodes edges with
          | Some ((merge :: _ as relay), relay_edges) when not (List.mem joiner relay) ->
              let attach_edges = relay_edges @ [ joining_edge ] in
              let attach_delay = Graph.delay_of_edges g attach_edges in
              {
                Smrp.merge;
                attach_nodes = relay @ [ joiner ];
                attach_edges;
                attach_delay;
                total_delay = attach_delay +. Tree.delay_to_source t merge;
                shr = Tree.shr t merge;
              }
              :: acc
          | _ -> acc)
    end
  in
  let all = List.fold_left collect [] (Graph.neighbors g joiner) in
  (* Deduplicate by merge node, keeping the lowest-delay connection. *)
  let best = Hashtbl.create 8 in
  List.iter
    (fun c ->
      match Hashtbl.find_opt best c.Smrp.merge with
      | Some c' when c'.Smrp.attach_delay <= c.Smrp.attach_delay -> ()
      | _ -> Hashtbl.replace best c.Smrp.merge c)
    all;
  Hashtbl.fold (fun _ c acc -> c :: acc) best []
  |> List.sort (fun a b -> compare a.Smrp.merge b.Smrp.merge)

let join ?d_thresh ?ws ?spf t nr =
  if Tree.is_member t nr then invalid_arg "Query.join: already a member";
  if Tree.is_on_tree t nr then Tree.add_member t nr
  else begin
    let spf = match spf with Some spf -> spf | None -> Smrp.source_spf ?ws t in
    if spf.(nr) = infinity then invalid_arg "Query.join: source unreachable";
    match Smrp.select ?d_thresh ~spf_distance:spf.(nr) (candidates ?ws t ~joiner:nr ~spf) with
    | Some c ->
        Tree.graft t ~nodes:c.Smrp.attach_nodes ~edges:c.Smrp.attach_edges;
        Tree.add_member t nr
    | None -> Spf.join ?ws ~spf t nr
  end

let build ?d_thresh ?ws g ~source ~members =
  let ws =
    match ws with
    | Some ws -> ws
    | None -> Dijkstra.workspace ~capacity:(Graph.node_count g) ()
  in
  let t = Tree.create g ~source in
  (* One source-rooted search supplies every join's D_SPF and bounds every
     query's path search. *)
  let spf = Smrp.source_spf ~ws t in
  List.iter (join ?d_thresh ~ws ~spf t) members;
  t
