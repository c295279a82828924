module Dijkstra = Smrp_graph.Dijkstra

(* [nodes] runs from the path's start with [edges] aligned pairwise; the
   graft is built merge-first as the walk goes. *)
let graft_path ~accept nodes edges =
  let rec walk nodes edges acc_nodes acc_edges =
    match (nodes, edges) with
    | v :: _, _ when accept v -> Some (v :: acc_nodes, acc_edges)
    | v :: rest, e :: es -> walk rest es (v :: acc_nodes) (e :: acc_edges)
    | _ -> None
  in
  walk nodes edges [] []

let attach_path ?filters ?ws t nr ~spf =
  if Tree.is_on_tree t nr then ([ nr ], [])
  else begin
    let g = Tree.graph t in
    let path =
      Dijkstra.shortest_path ?node_ok:(Option.map fst filters) ?edge_ok:(Option.map snd filters)
        ?workspace:ws g ~src:nr ~dst:(Tree.source t) ~lower:spf
    in
    match path with
    | None -> invalid_arg "Spf.attach_path: source unreachable"
    | Some (_, nodes, edges) -> (
        (* The join travels nr → source and grafts at the first on-tree
           node it meets. *)
        match graft_path ~accept:(Tree.is_on_tree t) nodes edges with
        | Some graft -> graft
        | None -> invalid_arg "Spf.attach_path: no on-tree node on the path")
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
