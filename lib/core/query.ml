module Graph = Smrp_graph.Graph
module Dijkstra = Smrp_graph.Dijkstra

let candidates ?ws t ~joiner =
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
      match Dijkstra.shortest_path ?workspace:ws g ~src:nb ~dst:(Tree.source t) with
      | None -> acc
      | Some (_, nodes, edges) ->
          (* Forward along nb's unicast path until the first on-tree node. *)
          let rec walk nodes edges acc_nodes acc_edges =
            match (nodes, edges) with
            | v :: _, _ when Tree.is_on_tree t v -> Some (v, v :: acc_nodes, acc_edges)
            | v :: rest, e :: es -> walk rest es (v :: acc_nodes) (e :: acc_edges)
            | _ -> None
          in
          (match walk nodes edges [ joiner ] [ joining_edge ] with
          | Some (merge, attach_nodes, attach_edges)
            when not (List.mem joiner (List.tl (List.rev attach_nodes))) ->
              (* Reject answers whose relay path loops back through the
                 joiner itself. *)
              let attach_delay = Graph.delay_of_edges g attach_edges in
              {
                Smrp.merge;
                attach_nodes;
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

let join ?d_thresh ?ws ?spf_dist t nr =
  if Tree.is_member t nr then invalid_arg "Query.join: already a member";
  if Tree.is_on_tree t nr then Tree.add_member t nr
  else begin
    match (match spf_dist with Some _ as d -> d | None -> Smrp.spf_distance ?ws t nr) with
    | None -> invalid_arg "Query.join: source unreachable"
    | Some spf_dist -> begin
        match Smrp.select ?d_thresh ~spf_distance:spf_dist (candidates ?ws t ~joiner:nr) with
        | Some c ->
            Tree.graft t ~nodes:c.Smrp.attach_nodes ~edges:c.Smrp.attach_edges;
            Tree.add_member t nr
        | None -> Spf.join ?ws t nr
      end
  end

let build ?d_thresh ?ws g ~source ~members =
  let ws =
    match ws with
    | Some ws -> ws
    | None -> Dijkstra.workspace ~capacity:(Graph.node_count g) ()
  in
  let t = Tree.create g ~source in
  List.iter (join ?d_thresh ~ws t) members;
  t
