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

let always _ = true

(* The candidate search of §3.2.1: a Dijkstra from the joiner that treats
   surviving on-tree nodes as absorbing.  [filters] is the active failure,
   already compiled: the search asks it once per relaxed edge.  Returns the
   settled result plus the survival predicate; callers must consume the
   result before the next run on the same workspace.  [bound] is
   [Dijkstra.run]'s: every node inside it gets the full search's distance
   and path. *)
let candidate_search ?filters ?bound ?ws t ~joiner =
  let g = Tree.graph t in
  let node_ok = Option.map fst filters and edge_ok = Option.map snd filters in
  let alive = Option.value node_ok ~default:always in
  let absorb v = Tree.is_on_tree t v && alive v in
  (* Spans ride the workspace recorder (see Dijkstra.set_flight): the search
     span nests the inner "dijkstra.run" span in the rendered trace. *)
  let flight =
    match ws with Some ws -> Dijkstra.workspace_flight ws | None -> Smrp_obs.Flight.null
  in
  let start = Smrp_obs.Flight.span_start flight in
  let result = Dijkstra.run ?node_ok ?edge_ok ~absorb ?bound ?workspace:ws g ~source:joiner in
  Smrp_obs.Flight.span flight ~code:Smrp_obs.Flight.span_candidate_search ~start ~b:joiner;
  (result, alive)

let spf_distance ?failure t v =
  let g = Tree.graph t in
  let filters = Option.map (Failure.filters g) failure in
  let r =
    Dijkstra.run ?node_ok:(Option.map fst filters) ?edge_ok:(Option.map snd filters) g ~source:v
  in
  Dijkstra.distance r (Tree.source t)

let source_spf ?filters ?ws t =
  let g = Tree.graph t and source = Tree.source t in
  match filters with
  | Some (node_ok, _) when not (node_ok source) ->
      Array.make (Smrp_graph.Graph.node_count g) infinity
  | _ ->
      Dijkstra.distances
        (Dijkstra.run ?node_ok:(Option.map fst filters) ?edge_ok:(Option.map snd filters)
           ?workspace:ws g ~source)

(* The criterion's slack: a delay within it of the bound meets the bound,
   and two delays within it of each other tie. *)
let epsilon = 1e-9

let delay_bound ~d_thresh d_spf = ((1.0 +. d_thresh) *. d_spf) +. epsilon

let[@inline] improves ~shr ~delay ~than_shr ~than_delay =
  shr < than_shr || (shr = than_shr && delay < than_delay -. epsilon)

(* The criterion's order: [improves], then the lower merge id among delays
   that tie.  The tie is not transitive, so a scan's order matters. *)
let[@inline] precedes ~shr ~delay ~merge ~than_shr ~than_delay ~than_merge =
  improves ~shr ~delay ~than_shr ~than_delay
  || (shr = than_shr && abs_float (delay -. than_delay) <= epsilon && merge < than_merge)

let minimum_by le = function
  | [] -> None
  | first :: rest -> Some (List.fold_left (fun best c -> if le c best then c else best) first rest)

let select ?(d_thresh = default_d_thresh) ~spf_distance cands =
  if not (d_thresh >= 0.0) then invalid_arg "Smrp.select: d_thresh must be non-negative";
  let bound = delay_bound ~d_thresh spf_distance in
  let bounded = List.filter (fun c -> c.total_delay <= bound) cands in
  match bounded with
  | _ :: _ ->
      minimum_by
        (fun a b ->
          precedes ~shr:a.shr ~delay:a.total_delay ~merge:a.merge ~than_shr:b.shr
            ~than_delay:b.total_delay ~than_merge:b.merge)
        bounded
  | [] ->
      (* No candidate meets the bound: degrade to the lowest-delay
         connection, i.e. SPF behaviour. *)
      minimum_by (fun a b -> a.total_delay < b.total_delay) cands

(* The settled merge points are scanned in ascending id with [select]'s
   comparisons: over them the scan picks what [select] picks over their
   candidate list.  No candidate record or path is materialised for losing
   merge points. *)
let select_settled t result ~merge_ok ~discount ~bound =
  let merges = Dijkstra.settled_by_id merge_ok result in
  let best = ref (-1) and best_delay = ref infinity and best_shr = ref max_int in
  for i = 0 to Array.length merges - 1 do
    let merge = merges.(i) in
    let total = Dijkstra.unsafe_distance result merge +. Tree.delay_to_source t merge in
    if total <= bound then begin
      let shr = Tree.shr t merge - discount merge in
      if
        !best < 0
        || precedes ~shr ~delay:total ~merge ~than_shr:!best_shr ~than_delay:!best_delay
             ~than_merge:!best
      then begin
        best := merge;
        best_delay := total;
        best_shr := shr
      end
    end
  done;
  !best

(* [select]'s fallback read off a full search: the reachable merge point
   of lowest total delay, the lowest id among exact ties; [-1] when the
   tree is out of reach. *)
let lowest_delay result alive t nr =
  let n = Smrp_graph.Graph.node_count (Tree.graph t) in
  let fallback = ref (-1) and fallback_delay = ref infinity in
  for merge = 0 to n - 1 do
    if merge <> nr && Tree.is_on_tree t merge && alive merge && Dijkstra.reachable result merge
    then begin
      let total = Dijkstra.unsafe_distance result merge +. Tree.delay_to_source t merge in
      if !fallback < 0 || total < !fallback_delay then begin
        fallback := merge;
        fallback_delay := total
      end
    end
  done;
  !fallback

(* Bounded first.  A merge point [m] that meets the bound has
   [d(m) + tree delay <= bound], and its tree delay is at least
   [spf.(m)], the shortest delay from [m] to the source (the tree path is
   one path of the graph [spf] was computed on).  So [d(m) + spf.(m)] is
   within the bound, and the search pruned by [spf] settles [m] with the
   full search's distance and path (see [Dijkstra.run]).  The settled
   merge points inside the bound are then exactly the full search's, and
   when there is one, the full search's winner is the same.  Only when
   there is none does the full search run, for the lowest-delay
   fallback. *)
let attach_path ?(d_thresh = default_d_thresh) ?filters ?ws t nr ~spf =
  if not (d_thresh >= 0.0) then invalid_arg "Smrp.attach_path: d_thresh must be non-negative";
  if Tree.is_on_tree t nr then ([ nr ], [])
  else begin
    let bound = delay_bound ~d_thresh spf.(nr) in
    let result, alive = candidate_search ?filters ~bound:(bound, spf) ?ws t ~joiner:nr in
    let merge_ok m = m <> nr && Tree.is_on_tree t m && alive m in
    let result, winner =
      match select_settled t result ~merge_ok ~discount:(fun _ -> 0) ~bound with
      | best when best >= 0 -> (result, best)
      | _ ->
          let result, alive = candidate_search ?filters ?ws t ~joiner:nr in
          (result, lowest_delay result alive t nr)
    in
    if winner < 0 then invalid_arg "Smrp.attach_path: no connection to the tree";
    (* Dijkstra paths run joiner → merge; grafting wants them merge → joiner. *)
    ( List.rev (Option.get (Dijkstra.path_nodes result winner)),
      List.rev (Option.get (Dijkstra.path_edges result winner)) )
  end

let join ?d_thresh ?filters ?ws ?spf t nr =
  if Tree.is_member t nr then invalid_arg "Smrp.join: already a member";
  if Tree.is_on_tree t nr then Tree.add_member t nr
  else begin
    (* [spf] lets a caller that already maintains the source-rooted SPF (a
       session's incremental Dspf) skip the per-join distance search. *)
    let spf = match spf with Some spf -> spf | None -> source_spf ?filters ?ws t in
    if spf.(nr) = infinity then invalid_arg "Smrp.join: source unreachable";
    let nodes, edges = attach_path ?d_thresh ?filters ?ws t nr ~spf in
    Tree.graft t ~nodes ~edges;
    Tree.add_member t nr
  end

let build ?d_thresh ?ws g ~source ~members =
  let ws =
    match ws with
    | Some ws -> ws
    | None -> Dijkstra.workspace ~capacity:(Smrp_graph.Graph.node_count g) ()
  in
  let t = Tree.create g ~source in
  (* One source-rooted search supplies every join's D_SPF and lower bounds
     (the graph is undirected and never mutates), replacing the per-join
     distance search. *)
  let spf = source_spf ~ws t in
  List.iter (fun nr -> join ?d_thresh ~ws ~spf t nr) members;
  t
