module Dijkstra = Smrp_graph.Dijkstra

let attach_path ?filters ?ws t nr ~spf =
  if Tree.is_on_tree t nr then ([ nr ], [])
  else begin
    let g = Tree.graph t in
    (* No filters when there is no failure: the search then takes
       Dijkstra's unfiltered bounded loop. *)
    let path =
      match filters with
      | None -> Dijkstra.shortest_path ?workspace:ws g ~src:nr ~dst:(Tree.source t) ~lower:spf
      | Some (node_ok, edge_ok) ->
          Dijkstra.shortest_path ~node_ok ~edge_ok ?workspace:ws g ~src:nr ~dst:(Tree.source t)
            ~lower:spf
    in
    match path with
    | None -> invalid_arg "Spf.attach_path: source unreachable"
    | Some (_, nodes, edges) ->
        (* The join travels nr → source and grafts at the first on-tree node
           it meets; the graft path runs from that merge node back to nr.
           [nodes] is nr..S with [edges] aligned pairwise. *)
        let rec walk nodes edges acc_nodes acc_edges =
          match (nodes, edges) with
          | v :: _, _ when Tree.is_on_tree t v -> (v :: acc_nodes, acc_edges)
          | v :: rest, e :: es -> walk rest es (v :: acc_nodes) (e :: acc_edges)
          | _ -> invalid_arg "Spf.attach_path: no on-tree node on the path"
        in
        walk nodes edges [] []
  end

let join ?filters ?ws ?spf t nr =
  if Tree.is_member t nr then invalid_arg "Spf.join: already a member";
  if not (Tree.is_on_tree t nr) then begin
    let spf = match spf with Some spf -> spf | None -> Smrp.source_spf ?filters ?ws t in
    let nodes, edges = attach_path ?filters ?ws t nr ~spf in
    Tree.graft t ~nodes ~edges
  end;
  Tree.add_member t nr

let build ?ws g ~source ~members =
  let ws =
    match ws with
    | Some ws -> ws
    | None -> Dijkstra.workspace ~capacity:(Smrp_graph.Graph.node_count g) ()
  in
  let t = Tree.create g ~source in
  (* One source-rooted search bounds every join's path search, as in
     [Smrp.build]. *)
  let spf = Smrp.source_spf ~ws t in
  List.iter (join ~ws ~spf t) members;
  t
