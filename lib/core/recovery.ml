module Dijkstra = Smrp_graph.Dijkstra
module Graph = Smrp_graph.Graph

type detour = {
  member : int;
  merge : int;
  path_nodes : int list;
  path_edges : int list;
  recovery_distance : float;
  new_total_delay : float;
}

let trivial t member =
  {
    member;
    merge = member;
    path_nodes = [ member ];
    path_edges = [];
    recovery_distance = 0.0;
    new_total_delay = Tree.delay_to_source t member;
  }

(* A nearest-target hit as a detour: ties on distance already resolved to
   the smallest merge id by the search, keeping recovery deterministic. *)
let of_nearest t ~member (h : Dijkstra.nearest) =
  {
    member;
    merge = h.Dijkstra.target;
    path_nodes = h.Dijkstra.nodes;
    path_edges = h.Dijkstra.edges;
    recovery_distance = h.Dijkstra.dist;
    new_total_delay = h.Dijkstra.dist +. Tree.delay_to_source t h.Dijkstra.target;
  }

(* What a detour search knows before it starts: [f] compiled, and the tree's
   surviving set.  A caller that searches for many members of one tree
   (staged repair) passes both; otherwise they are computed here, the
   filters only once a search is certain. *)
let alive ?filters f v =
  match filters with Some (node_ok, _) -> node_ok v | None -> Failure.node_ok f v

let compiled ?filters g f = match filters with Some fl -> fl | None -> Failure.filters g f

let surviving_set ?surviving t f =
  match surviving with Some s -> s | None -> Failure.tree_connected t f

let local_detour ?ws ?filters ?surviving t f ~member =
  if not (alive ?filters f member) then None
  else begin
    let g = Tree.graph t in
    let surviving = surviving_set ?surviving t f in
    if surviving.(member) then Some (trivial t member)
    else begin
      let node_ok, edge_ok = compiled ?filters g f in
      Option.map (of_nearest t ~member)
        (Dijkstra.nearest ~node_ok ~edge_ok ?workspace:ws g ~source:member
           ~target:(fun v -> surviving.(v)))
    end
  end

(* Branch detour: the re-attachment path of a whole orphaned subtree, used
   by the precomputed-protection tables ([Protect]).  [root] is the orphan's
   root; [eligible] marks the merge targets (on-tree, outside the orphaned
   region, and surviving the post-failure pruning — the caller computes
   this).  Interior path nodes must be strictly off-tree, exactly as in the
   SMRP candidate search (footnote 4), so the merge point is the true merge
   point. *)
let branch_detour ?ws t f ~root ~eligible =
  if not (Failure.node_ok f root) then None
  else begin
    let g = Tree.graph t in
    let alive, edge_ok = Failure.filters g f in
    let node_ok v = alive v && (v = root || (not (Tree.is_on_tree t v)) || eligible v) in
    Option.map (of_nearest t ~member:root)
      (Dijkstra.nearest ~node_ok ~edge_ok ?workspace:ws g ~source:root ~target:eligible)
  end

let surviving_tree old f =
  let fresh = Tree.create (Tree.graph old) ~source:(Tree.source old) in
  let connected = Failure.tree_connected old f in
  (* Re-graft the path of each surviving member rather than copying the
     whole surviving structure: relay chains whose members were all cut off
     must not survive (they would violate the pruning discipline). *)
  List.iter
    (fun m ->
      if connected.(m) then begin
        (* Path runs m..source; find the deepest node already on [fresh]
           and graft the suffix from there down to m. *)
        let rec split acc = function
          | v :: _ when Tree.is_on_tree fresh v -> Some (v :: acc)
          | v :: rest -> split (v :: acc) rest
          | [] -> None
        in
        (match split [] (Tree.path_to_source old m) with
        | Some (merge :: _ :: _ as nodes) ->
            ignore merge;
            let edges =
              match nodes with
              | _ :: rest -> List.map (fun v -> Option.get (Tree.parent_edge old v)) rest
              | [] -> []
            in
            Tree.graft fresh ~nodes ~edges
        | Some ([] | [ _ ]) | None -> ());
        Tree.add_member fresh m
      end)
    (Tree.members old);
  fresh

let global_detour ?ws ?filters ?surviving t f ~member =
  if not (alive ?filters f member) then None
  else begin
    let g = Tree.graph t in
    let surviving = surviving_set ?surviving t f in
    if surviving.(member) then Some (trivial t member)
    else begin
      let node_ok, edge_ok = compiled ?filters g f in
      match
        Dijkstra.shortest_path ~node_ok ~edge_ok ?workspace:ws g ~src:member ~dst:(Tree.source t)
      with
      | None -> None
      | Some (_, nodes, edges) ->
          (* The re-issued join grafts at the first on-tree node along the
             new unicast path that still receives data; only the prefix up to
             it counts as recovery effort. *)
          let rec prefix nodes edges acc_nodes acc_edges =
            match (nodes, edges) with
            | v :: _, _ when surviving.(v) -> (v, List.rev (v :: acc_nodes), List.rev acc_edges)
            | v :: rest, e :: es -> prefix rest es (v :: acc_nodes) (e :: acc_edges)
            | _ -> invalid_arg "Recovery.global_detour: path misses the source"
          in
          let merge, path_nodes, path_edges = prefix nodes edges [] [] in
          let rd = Graph.delay_of_edges g path_edges in
          Some
            {
              member;
              merge;
              path_nodes;
              path_edges;
              recovery_distance = rd;
              new_total_delay = rd +. Tree.delay_to_source t merge;
            }
    end
  end
