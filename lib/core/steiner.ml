module Graph = Smrp_graph.Graph
module Dijkstra = Smrp_graph.Dijkstra

(* The cheapest connection from [joiner] to the current tree: a search for
   the nearest on-tree node over link costs, returned merge-first.  A link's
   cost is its delay (§4.2), so the delay-weighted search is the
   cost-weighted one. *)
let cheapest_connection ?ws t ~joiner =
  Option.map
    (fun h -> (h.Dijkstra.dist, List.rev h.Dijkstra.nodes, List.rev h.Dijkstra.edges))
    (Dijkstra.nearest ?workspace:ws (Tree.graph t) ~source:joiner ~target:(Tree.is_on_tree t))

(* Greedy join: attach via the minimum-cost connection to the current tree
   (the incremental form of Takahashi–Matsuyama). *)
let join t nr =
  if Tree.is_on_tree t nr then Tree.add_member t nr
  else begin
    match cheapest_connection t ~joiner:nr with
    | None -> invalid_arg "Steiner.build: some member cannot reach the tree"
    | Some (_, nodes, edges) ->
        Tree.graft t ~nodes ~edges;
        Tree.add_member t nr
  end

let build g ~source ~members =
  let ws = Dijkstra.workspace ~capacity:(Graph.node_count g) () in
  let t = Tree.create g ~source in
  (* Takahashi–Matsuyama order: always the member closest to the current
     tree next. *)
  let remaining = ref (List.filter (fun m -> not (Tree.is_member t m)) members) in
  while !remaining <> [] do
    let scored =
      List.filter_map
        (fun m ->
          if Tree.is_on_tree t m then Some (0.0, m)
          else
            Option.map (fun (d, _, _) -> (d, m)) (cheapest_connection ~ws t ~joiner:m))
        !remaining
    in
    match List.sort compare scored with
    | [] -> invalid_arg "Steiner.build: some member cannot reach the tree"
    | (_, next) :: _ ->
        join t next;
        remaining := List.filter (fun m -> m <> next) !remaining
  done;
  t
