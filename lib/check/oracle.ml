module Graph = Smrp_graph.Graph
module Dijkstra = Smrp_graph.Dijkstra
module Tree = Smrp_core.Tree
module Failure = Smrp_core.Failure
module Recovery = Smrp_core.Recovery
module Session = Smrp_core.Session

type violation = { oracle : string; message : string }

let violation oracle fmt = Format.kasprintf (fun message -> Some { oracle; message }) fmt

(* Delays accumulate in different association orders on the two sides of a
   differential check (Dijkstra sums from the joiner outward, the tree from
   the merge point down), so float comparisons get a small absolute slack. *)
let eps = 1e-6

(* -- From-scratch recomputation ---------------------------------------- *)

let recompute_n_r t =
  let n = Graph.node_count (Tree.graph t) in
  let a = Array.make n 0 in
  List.iter
    (fun m -> List.iter (fun v -> a.(v) <- a.(v) + 1) (Tree.path_to_source t m))
    (Tree.members t);
  a

let recompute_shr t =
  let n_r = recompute_n_r t in
  let n = Graph.node_count (Tree.graph t) in
  let a = Array.make n 0 in
  let source = Tree.source t in
  List.iter
    (fun v ->
      a.(v) <-
        List.fold_left
          (fun acc r -> if r = source then acc else acc + n_r.(r))
          0 (Tree.path_to_source t v))
    (Tree.on_tree_nodes t);
  a

(* -- Structural oracles ------------------------------------------------- *)

let structure t =
  match Tree.validate t with
  | Ok () -> None
  | Error msg -> violation "structure" "%s" msg

let members_connected t =
  let source = Tree.source t in
  let rec check = function
    | [] -> None
    | m :: rest ->
        if not (Tree.is_on_tree t m) then violation "members-connected" "member %d is off-tree" m
        else begin
          match List.rev (Tree.path_to_source t m) with
          | last :: _ when last = source -> check rest
          | _ -> violation "members-connected" "member %d's tree path misses the source" m
        end
  in
  check (Tree.members t)

let bookkeeping t =
  let n_r = recompute_n_r t in
  let shr = recompute_shr t in
  let n = Graph.node_count (Tree.graph t) in
  let rec check v =
    if v >= n then None
    else if Tree.subtree_members t v <> n_r.(v) then
      violation "bookkeeping" "node %d records N_R = %d, recomputation says %d" v
        (Tree.subtree_members t v) n_r.(v)
    else if Tree.is_on_tree t v && Tree.shr t v <> shr.(v) then
      violation "bookkeeping" "node %d reports SHR = %d, recomputation says %d" v (Tree.shr t v)
        shr.(v)
    else check (v + 1)
  in
  check 0

let avoids_failure t f =
  let g = Tree.graph t in
  let bad_node = List.find_opt (fun v -> not (Failure.node_ok f v)) (Tree.on_tree_nodes t) in
  match bad_node with
  | Some v -> violation "avoids-failure" "failed node %d is on the tree" v
  | None -> (
      match List.find_opt (fun e -> not (Failure.edge_ok g f e)) (Tree.tree_edges t) with
      | Some e -> violation "avoids-failure" "failed link %d carries the tree" e
      | None -> None)

(* -- Join differential oracle ------------------------------------------- *)

type naive_candidate = {
  merge : int;
  attach_nodes : int list;
  attach_edges : int list;
  attach_delay : float;
  total_delay : float;
  shr : int;
}

let naive_candidates ?failure ?(exclude = fun _ -> false) t ~joiner =
  let g = Tree.graph t in
  let alive v =
    (match failure with None -> true | Some f -> Failure.node_ok f v) && not (exclude v)
  in
  let edge_ok e = match failure with None -> true | Some f -> Failure.edge_ok g f e in
  let absorb v = Tree.is_on_tree t v && alive v in
  let result = Dijkstra.run_reference ~node_ok:alive ~edge_ok ~absorb g ~source:joiner in
  let shr = recompute_shr t in
  let acc = ref [] in
  for merge = Graph.node_count g - 1 downto 0 do
    if merge <> joiner && absorb merge && Dijkstra.reachable result merge then begin
      let attach_delay = Option.get (Dijkstra.distance result merge) in
      acc :=
        {
          merge;
          (* The search runs joiner → merge; a graft runs merge → joiner. *)
          attach_nodes = List.rev (Option.get (Dijkstra.path_nodes result merge));
          attach_edges = List.rev (Option.get (Dijkstra.path_edges result merge));
          attach_delay;
          total_delay = attach_delay +. Tree.delay_to_source t merge;
          shr = shr.(merge);
        }
        :: !acc
    end
  done;
  !acc

(* Mirrors the Path Selection Criterion of [Smrp.select] and
   [Smrp.attach_path] — including their exact epsilon and tie-breaks — over
   a candidate list in ascending merge order. *)
let naive_select ~d_thresh ~spf_distance cands =
  let bound_epsilon = 1e-9 in
  let bound = ((1.0 +. d_thresh) *. spf_distance) +. bound_epsilon in
  let best = ref None in
  let fallback = ref None in
  List.iter
    (fun c ->
      (match !fallback with
      | Some f when f.total_delay <= c.total_delay -> ()
      | _ -> fallback := Some c);
      if c.total_delay <= bound then begin
        match !best with
        | None -> best := Some c
        | Some b ->
            if
              c.shr < b.shr
              || (c.shr = b.shr && c.total_delay < b.total_delay -. bound_epsilon)
            then best := Some c
      end)
    cands;
  match !best with Some _ as b -> b | None -> !fallback

(* -- Repair oracle ------------------------------------------------------ *)

let sorted_edges t = List.sort compare (Tree.tree_edges t)

(* -- Protected-repair oracle -------------------------------------------- *)

(* The nearest-target answer recomputed the slow way: the reference
   Dijkstra over the whole graph with the targets absorbing, then an
   exhaustive descending scan of the reachable targets (ties to the
   smallest id), as [naive_candidates] does for joins. *)
let naive_nearest ?node_ok ?edge_ok g ~source ~target =
  let target v = v <> source && target v in
  let result = Dijkstra.run_reference ?node_ok ?edge_ok ~absorb:target g ~source in
  let best = ref None in
  for v = Graph.node_count g - 1 downto 0 do
    if target v && Dijkstra.reachable result v then begin
      let d = Option.get (Dijkstra.distance result v) in
      match !best with Some (bd, _) when bd < d -> () | _ -> best := Some (d, v)
    end
  done;
  Option.map
    (fun (dist, v) ->
      {
        Dijkstra.target = v;
        dist;
        nodes = Option.get (Dijkstra.path_nodes result v);
        edges = Option.get (Dijkstra.path_edges result v);
      })
    !best

(* A branch detour searched without the tables' search: same filters as
   [Recovery.branch_detour], answered by [naive_nearest]. *)
let naive_branch_detour t f ~root ~eligible =
  let g = Tree.graph t in
  if not (Failure.node_ok f root) then None
  else
    naive_nearest
      ~node_ok:(fun v ->
        Failure.node_ok f v && (v = root || (not (Tree.is_on_tree t v)) || eligible v))
      ~edge_ok:(Failure.edge_ok g f) g ~source:root ~target:eligible

(* Differential for the table-lookup recovery path.  A [`Protected] repair
   re-attached a whole orphaned branch, so instead of replaying a staged
   member-by-member rebuild the oracle recomputes every branch detour from
   scratch over the pre-failure tree — the same eligibility semantics the
   tables bake in, but none of the cached state (Euler tour, path arenas,
   version stamps) and not the tables' nearest-target search — and demands
   the lookup answered with exactly that detour. *)
let protected_replay ~pre ~failure ~repairs ~post ~lost =
  let g = Tree.graph pre in
  let source = Tree.source pre in
  (* The fast path only fires for a single link on a tree edge or a single
     non-source on-tree node; [cut] roots the whole orphaned region and
     [roots] are its branch roots, one repair each. *)
  let scope =
    match failure with
    | Failure.Link eid ->
        let e = Graph.edge g eid in
        if Tree.is_on_tree pre e.Graph.u && Tree.parent_edge_id pre e.Graph.u = eid then
          Some (e.Graph.u, [ e.Graph.u ])
        else if Tree.is_on_tree pre e.Graph.v && Tree.parent_edge_id pre e.Graph.v = eid then
          Some (e.Graph.v, [ e.Graph.v ])
        else None
    | Failure.Node v ->
        if v <> source && Tree.is_on_tree pre v then Some (v, Tree.children pre v) else None
    | Failure.Multi _ -> None
  in
  match scope with
  | None -> violation "protected-scope" "a protected repair fired for an out-of-scope failure"
  | Some (cut, roots) ->
      let in_cut v = Tree.is_on_tree pre v && List.mem cut (Tree.path_to_source pre v) in
      (* Surviving members below each node: N_R recomputed with the orphaned
         region's members removed — merge eligibility after the post-failure
         pruning (the source always qualifies). *)
      let surviving = Array.make (Graph.node_count g) 0 in
      List.iter
        (fun m ->
          if not (in_cut m) then
            List.iter (fun v -> surviving.(v) <- surviving.(v) + 1) (Tree.path_to_source pre m))
        (Tree.members pre);
      let eligible v =
        Tree.is_on_tree pre v
        && (not (in_cut v))
        && Failure.node_ok failure v
        && (v = source || surviving.(v) > 0)
      in
      let dead = List.filter (fun m -> not (Failure.node_ok failure m)) (Tree.members pre) in
      let rec check_each = function
        | [] -> None
        | { Session.detour = d; _ } :: rest ->
            let root = d.Recovery.member in
            let rd = Graph.delay_of_edges g d.Recovery.path_edges in
            if not (List.mem root roots) then
              violation "protected-scope" "repair root %d is not an orphaned branch root" root
            else if abs_float (d.Recovery.recovery_distance -. rd) > eps then
              violation "protected-distance"
                "branch %d reports RD = %g but its detour links sum to %g" root
                d.Recovery.recovery_distance rd
            else if List.exists (fun v -> not (Failure.node_ok failure v)) d.Recovery.path_nodes
            then violation "protected-distance" "branch %d's detour crosses the failed node" root
            else if List.exists (fun e -> not (Failure.edge_ok g failure e)) d.Recovery.path_edges
            then violation "protected-distance" "branch %d's detour crosses the failed link" root
            else if not (Tree.is_on_tree post d.Recovery.merge) then
              violation "protected-replay" "branch %d's merge node %d is off the repaired tree"
                root d.Recovery.merge
            else if
              abs_float
                (d.Recovery.new_total_delay -. (rd +. Tree.delay_to_source post d.Recovery.merge))
              > eps
            then
              violation "protected-distance"
                "branch %d's total delay %g disagrees with RD + merge delay in the repaired tree"
                root d.Recovery.new_total_delay
            else begin
              match naive_branch_detour pre failure ~root ~eligible with
              | None ->
                  violation "protected-differential"
                    "the from-scratch branch search finds no detour for branch %d, the table \
                     answered one"
                    root
              | Some fresh ->
                  if fresh.Dijkstra.target <> d.Recovery.merge then
                    violation "protected-differential"
                      "branch %d merges at %d; the from-scratch search selects %d" root
                      d.Recovery.merge fresh.Dijkstra.target
                  else if abs_float (fresh.Dijkstra.dist -. rd) > eps then
                    violation "protected-differential"
                      "branch %d's RD is %g; the from-scratch search computes %g" root rd
                      fresh.Dijkstra.dist
                  else if fresh.Dijkstra.nodes <> d.Recovery.path_nodes then
                    violation "protected-differential"
                      "branch %d's detour path differs from the from-scratch search's" root
                  else check_each rest
            end
      in
      let sorted l = List.sort compare l in
      (match check_each repairs with
      | Some _ as v -> v
      | None ->
          let repair_roots =
            sorted (List.map (fun r -> r.Session.detour.Recovery.member) repairs)
          in
          if repair_roots <> sorted roots then
            violation "protected-accounting" "branch roots %s repaired, expected %s"
              (String.concat "," (List.map string_of_int repair_roots))
              (String.concat "," (List.map string_of_int (sorted roots)))
          else if sorted lost <> sorted dead then
            violation "protected-accounting"
              "lost members %s, but under protection only failed routers lose service (%s)"
              (String.concat "," (List.map string_of_int (sorted lost)))
              (String.concat "," (List.map string_of_int (sorted dead)))
          else begin
            let expect =
              sorted (List.filter (fun m -> Failure.node_ok failure m) (Tree.members pre))
            in
            if sorted (Tree.members post) <> expect then
              violation "protected-accounting"
                "protection dropped a surviving member (post members %s, expected %s)"
                (String.concat "," (List.map string_of_int (sorted (Tree.members post))))
                (String.concat "," (List.map string_of_int expect))
            else None
          end)

let repair_replay ~pre ~failure ~repairs ~post ~lost =
  let g = Tree.graph pre in
  let affected = Failure.affected_members pre failure in
  let dead = List.filter (fun m -> not (Failure.node_ok failure m)) (Tree.members pre) in
  let repaired = List.map (fun r -> r.Session.detour.Recovery.member) repairs in
  let replay = Recovery.surviving_tree pre failure in
  let rec apply = function
    | [] -> None
    | { Session.detour = d; _ } :: rest ->
        let m = d.Recovery.member in
        let rd = Graph.delay_of_edges g d.Recovery.path_edges in
        if abs_float (d.Recovery.recovery_distance -. rd) > eps then
          violation "recovery-distance"
            "member %d reports RD = %g but its new links sum to %g" m
            d.Recovery.recovery_distance rd
        else if List.exists (fun v -> not (Failure.node_ok failure v)) d.Recovery.path_nodes then
          violation "recovery-distance" "member %d's detour crosses a failed node" m
        else if
          List.exists (fun e -> not (Failure.edge_ok g failure e)) d.Recovery.path_edges
        then violation "recovery-distance" "member %d's detour crosses a failed link" m
        else begin
          let current = Tree.tree_edges replay in
          match List.find_opt (fun e -> List.mem e current) d.Recovery.path_edges with
          | Some e ->
              violation "recovery-distance"
                "member %d's RD counts link %d which the tree already carries" m e
          | None -> (
              match
                (match d.Recovery.path_edges with
                | [] -> Tree.add_member replay m
                | _ ->
                    Tree.graft replay
                      ~nodes:(List.rev d.Recovery.path_nodes)
                      ~edges:(List.rev d.Recovery.path_edges);
                    Tree.add_member replay m)
              with
              | () -> apply rest
              | exception Invalid_argument msg ->
                  violation "recovery-replay" "replaying member %d's repair failed: %s" m msg)
        end
  in
  match apply repairs with
  | Some _ as v -> v
  | None ->
      if sorted_edges replay <> sorted_edges post then
        violation "recovery-replay" "replayed repair yields a different tree edge set"
      else if Tree.members replay <> Tree.members post then
        violation "recovery-replay" "replayed repair yields a different member set"
      else begin
        (* Conservation: every pre-failure member is exactly one of repaired,
           lost, dead, or untouched-and-still-served. *)
        let expected_gone = List.sort compare (affected @ dead) in
        let actual_gone = List.sort compare (repaired @ lost) in
        if expected_gone <> actual_gone then
          violation "recovery-accounting"
            "affected+dead members %s but repaired+lost %s"
            (String.concat "," (List.map string_of_int expected_gone))
            (String.concat "," (List.map string_of_int actual_gone))
        else None
      end
