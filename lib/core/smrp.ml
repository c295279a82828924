module Dijkstra = Smrp_graph.Dijkstra

type candidate = {
  merge : int;
  attach_nodes : int list;
  attach_edges : int list;
  attach_delay : float;
  total_delay : float;
  shr : int;
}

let default_d_thresh = 0.3

(* The candidate search of §3.2.1: a Dijkstra from the joiner that treats
   admissible on-tree nodes as absorbing.  Returns the settled result plus
   the admissibility predicate; callers must consume the result before the
   next run on the same workspace. *)
let candidate_search ?exclude ?failure ?ws t ~joiner =
  let g = Tree.graph t in
  let alive v = match failure with None -> true | Some f -> Failure.node_ok f v in
  let excluded v = match exclude with None -> false | Some f -> f v in
  let admissible v = alive v && not (excluded v) in
  let absorb v = Tree.is_on_tree t v && admissible v in
  (* Spans ride the workspace recorder (see Dijkstra.set_flight): the search
     span nests the inner "dijkstra.run" span in the rendered trace. *)
  let flight =
    match ws with Some ws -> Dijkstra.workspace_flight ws | None -> Smrp_obs.Flight.null
  in
  let start = Smrp_obs.Flight.span_start flight in
  let result =
    (* Only pass per-edge/per-node filters when something actually filters:
       the unconstrained search takes Dijkstra's absorb-only fast path. *)
    match (failure, exclude) with
    | None, None -> Dijkstra.run ~absorb ?workspace:ws g ~source:joiner
    | _ ->
        let edge_alive e = match failure with None -> true | Some f -> Failure.edge_ok g f e in
        Dijkstra.run ~node_ok:admissible ~edge_ok:edge_alive ~absorb ?workspace:ws g ~source:joiner
  in
  Smrp_obs.Flight.span flight ~code:Smrp_obs.Flight.span_candidate_search ~start ~b:joiner;
  (result, admissible)

let candidates ?exclude ?failure ?ws t ~joiner =
  let g = Tree.graph t in
  let result, admissible = candidate_search ?exclude ?failure ?ws t ~joiner in
  let absorb v = Tree.is_on_tree t v && admissible v in
  let acc = ref [] in
  for merge = Smrp_graph.Graph.node_count g - 1 downto 0 do
    if merge <> joiner && absorb merge && Dijkstra.reachable result merge then begin
      match (Dijkstra.path_nodes result merge, Dijkstra.path_edges result merge) with
      | Some nodes, Some edges ->
          let attach_delay = Option.get (Dijkstra.distance result merge) in
          let candidate =
            {
              merge;
              (* Dijkstra paths run joiner → merge; grafting wants them
                 merge → joiner. *)
              attach_nodes = List.rev nodes;
              attach_edges = List.rev edges;
              attach_delay;
              total_delay = attach_delay +. Tree.delay_to_source t merge;
              shr = Tree.shr t merge;
            }
          in
          acc := candidate :: !acc
      | _ -> ()
    end
  done;
  !acc

let spf_distance ?failure ?ws t v =
  let g = Tree.graph t in
  let r =
    match failure with
    | None -> Dijkstra.run ?workspace:ws g ~source:v
    | Some f ->
        Dijkstra.run
          ~node_ok:(fun v -> Failure.node_ok f v)
          ~edge_ok:(fun e -> Failure.edge_ok g f e)
          ?workspace:ws g ~source:v
  in
  Dijkstra.distance r (Tree.source t)

let bound_epsilon = 1e-9

let better a b =
  a.shr < b.shr
  || (a.shr = b.shr && a.total_delay < b.total_delay -. bound_epsilon)
  || (a.shr = b.shr && abs_float (a.total_delay -. b.total_delay) <= bound_epsilon && a.merge < b.merge)

let minimum_by le = function
  | [] -> None
  | first :: rest -> Some (List.fold_left (fun best c -> if le c best then c else best) first rest)

let select ?(d_thresh = default_d_thresh) ~spf_distance cands =
  if d_thresh < 0.0 then invalid_arg "Smrp.select: d_thresh must be non-negative";
  let bound = ((1.0 +. d_thresh) *. spf_distance) +. bound_epsilon in
  let bounded = List.filter (fun c -> c.total_delay <= bound) cands in
  match bounded with
  | _ :: _ -> minimum_by better bounded
  | [] ->
      (* No candidate meets the bound: degrade to the lowest-delay
         connection, i.e. SPF behaviour. *)
      minimum_by (fun a b -> a.total_delay < b.total_delay) cands

(* [select] over [candidates], computed directly off the candidate-search
   result: no candidate record or path is materialised for losing merge
   points.  The scan order (ascending merge id) and every comparison —
   including the fallback to the lowest-delay connection when nothing meets
   the bound — replicate the list-based pipeline exactly. *)
let join_where ?(d_thresh = default_d_thresh) ?failure ?ws t nr ~spf_dist =
  if d_thresh < 0.0 then invalid_arg "Smrp.select: d_thresh must be non-negative";
  let n = Smrp_graph.Graph.node_count (Tree.graph t) in
  let result, admissible = candidate_search ?failure ?ws t ~joiner:nr in
  let bound = ((1.0 +. d_thresh) *. spf_dist) +. bound_epsilon in
  let best = ref (-1) and best_delay = ref infinity and best_shr = ref max_int in
  let fallback = ref (-1) and fallback_delay = ref infinity in
  for merge = 0 to n - 1 do
    if
      merge <> nr && Tree.is_on_tree t merge && admissible merge
      && Dijkstra.reachable result merge
    then begin
      let total = Option.get (Dijkstra.distance result merge) +. Tree.delay_to_source t merge in
      if !fallback < 0 || total < !fallback_delay then begin
        fallback := merge;
        fallback_delay := total
      end;
      if total <= bound then begin
        let shr = Tree.shr t merge in
        let is_better =
          !best < 0 || shr < !best_shr
          || (shr = !best_shr && total < !best_delay -. bound_epsilon)
          || (shr = !best_shr && abs_float (total -. !best_delay) <= bound_epsilon && merge < !best)
        in
        if is_better then begin
          best := merge;
          best_delay := total;
          best_shr := shr
        end
      end
    end
  done;
  let winner = if !best >= 0 then !best else !fallback in
  if winner < 0 then invalid_arg "Smrp.join: no connection to the tree";
  (* Dijkstra paths run joiner → merge; grafting wants them merge → joiner. *)
  let nodes = Option.get (Dijkstra.path_nodes result winner) in
  let edges = Option.get (Dijkstra.path_edges result winner) in
  Tree.graft t ~nodes:(List.rev nodes) ~edges:(List.rev edges);
  Tree.add_member t nr

let join ?d_thresh ?failure ?ws ?spf_dist t nr =
  if Tree.is_member t nr then invalid_arg "Smrp.join: already a member";
  if Tree.is_on_tree t nr then Tree.add_member t nr
  else begin
    (* [spf_dist] lets a caller that already maintains the source-rooted
       SPF (e.g. a protection session's incremental Dspf) skip the
       per-join distance search. *)
    match (match spf_dist with Some _ as d -> d | None -> spf_distance ?failure ?ws t nr) with
    | None -> invalid_arg "Smrp.join: source unreachable"
    | Some spf_dist -> join_where ?d_thresh ?failure ?ws t nr ~spf_dist
  end

let leave t m = Tree.remove_member t m

let build ?d_thresh ?ws g ~source ~members =
  let ws =
    match ws with
    | Some ws -> ws
    | None -> Dijkstra.workspace ~capacity:(Smrp_graph.Graph.node_count g) ()
  in
  let t = Tree.create g ~source in
  (* One source-rooted search supplies every member's unicast SPF distance
     up front (the graph is undirected and never mutates), replacing the
     per-join distance search.  Distances are extracted before the first
     join because the joins' searches reuse — and so invalidate — [ws]. *)
  let from_source = Dijkstra.run ~workspace:ws g ~source in
  let spf_dists = List.map (fun m -> Dijkstra.distance from_source m) members in
  List.iter2
    (fun nr spf_dist ->
      if Tree.is_member t nr then invalid_arg "Smrp.join: already a member";
      if Tree.is_on_tree t nr then Tree.add_member t nr
      else
        match spf_dist with
        | None -> invalid_arg "Smrp.join: source unreachable"
        | Some spf_dist -> join_where ?d_thresh ~ws t nr ~spf_dist)
    members spf_dists;
  t
