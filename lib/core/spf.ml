module Dijkstra = Smrp_graph.Dijkstra

let attach_path ?filters ?ws t nr =
  if Tree.is_on_tree t nr then ([ nr ], [])
  else begin
    let g = Tree.graph t in
    (* No filters when there is no failure: the search then takes
       Dijkstra's unfiltered fast path. *)
    let path =
      match filters with
      | None -> Dijkstra.shortest_path ?workspace:ws g ~src:nr ~dst:(Tree.source t)
      | Some (node_ok, edge_ok) ->
          Dijkstra.shortest_path ~node_ok ~edge_ok ?workspace:ws g ~src:nr ~dst:(Tree.source t)
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

let join ?filters ?ws t nr =
  if Tree.is_member t nr then invalid_arg "Spf.join: already a member";
  (match attach_path ?filters ?ws t nr with
  | [ _ ], [] -> ()
  | nodes, edges -> Tree.graft t ~nodes ~edges);
  Tree.add_member t nr

let build ?ws g ~source ~members =
  let ws =
    match ws with
    | Some ws -> ws
    | None -> Dijkstra.workspace ~capacity:(Smrp_graph.Graph.node_count g) ()
  in
  let t = Tree.create g ~source in
  List.iter (join ~ws t) members;
  t
