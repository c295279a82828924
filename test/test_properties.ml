(* Cross-cutting qcheck properties tying the whole stack together: every
   invariant here corresponds to a claim in the paper (§3.1–§3.2) or to a
   structural guarantee downstream code relies on. *)

module Graph = Smrp_graph.Graph
module Dijkstra = Smrp_graph.Dijkstra
module Rng = Smrp_rng.Rng
module Waxman = Smrp_topology.Waxman
module Tree = Smrp_core.Tree
module Spf = Smrp_core.Spf
module Smrp = Smrp_core.Smrp
module Reshape = Smrp_core.Reshape
module Failure = Smrp_core.Failure
module Recovery = Smrp_core.Recovery
module Session = Smrp_core.Session
module Query = Smrp_core.Query
module Scenario = Smrp_experiments.Scenario
module Oracle = Smrp_check.Oracle

(* Property tests run with a pinned PRNG state so failures are
   reproducible run over run. *)
let qcheck_case t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 424242 |]) t

(* A global detour bounded by the source SPF over the network [f] leaves. *)
let global_detour t f ~member =
  Recovery.global_detour t f ~member
    ~spf:(Smrp.source_spf ~filters:(Failure.filters (Tree.graph t) f) t)

let scene seed =
  let rng = Rng.create seed in
  let n = 20 + Rng.int rng 60 in
  let link_delay = if Rng.bool rng then `Euclidean else `Unit in
  let topo = Waxman.generate ~link_delay rng ~n ~alpha:0.2 ~beta:0.2 in
  let k = 2 + Rng.int rng (min 15 (n - 2)) in
  let sample = Smrp_rng.Rng.sample_without_replacement rng (k + 1) n in
  (topo.Waxman.graph, List.hd sample, List.tl sample)

(* §3.2.2: the delay bound.  Every SMRP member is within (1 + D_thresh) of
   its unicast shortest delay, or — in the fallback case — at the lowest
   total delay any merge point offered. *)
let bound_respected =
  QCheck.Test.make ~name:"every SMRP member respects the D_thresh bound (or its fallback)"
    ~count:150 QCheck.small_int (fun seed ->
      let g, source, members = scene seed in
      let d_thresh = 0.3 in
      let t = Tree.create g ~source in
      List.for_all
        (fun m ->
          (* Check against the join-time tree: a bounded candidate either
             exists (and the join must respect the bound) or the member
             legitimately falls back to the lowest-delay connection.  A
             joiner that is already on-tree keeps its relay path verbatim (a
             zero-cost subscription), so the bound does not apply to it. *)
          let was_on_tree = Tree.is_on_tree t m in
          let spf = Option.get (Smrp.spf_distance t m) in
          let had_bounded =
            (not was_on_tree)
            && List.exists
                 (fun c -> c.Oracle.total_delay <= ((1.0 +. d_thresh) *. spf) +. 1e-9)
                 (Oracle.naive_candidates t ~joiner:m)
          in
          Smrp.join ~d_thresh t m;
          (not had_bounded)
          || Tree.delay_to_source t m <= ((1.0 +. d_thresh) *. spf) +. 1e-9)
        members)

(* SHR accounting matches Eq. 1 recomputed from scratch. *)
let shr_matches_link_definition =
  QCheck.Test.make ~name:"SHR by Eq. 2 equals SHR by Eq. 1 (link counting)" ~count:100
    QCheck.small_int (fun seed ->
      let g, source, members = scene seed in
      let t = Smrp.build ~d_thresh:0.3 g ~source ~members in
      (* N_{L(u,v)} = members whose tree path uses the link. *)
      let link_users eid =
        List.length
          (List.filter
             (fun m ->
               let rec walk v = function
                 | [] -> false
                 | p :: rest -> (
                     ignore p;
                     match Tree.parent_edge t v with
                     | Some e when e = eid -> true
                     | _ -> ( match Tree.parent t v with Some u -> walk u rest | None -> false))
               in
               walk m (Tree.path_to_source t m))
             members)
      in
      List.for_all
        (fun m ->
          let eq1 =
            let rec up v acc =
              match (Tree.parent t v, Tree.parent_edge t v) with
              | Some p, Some eid -> up p (acc + link_users eid)
              | _ -> acc
            in
            up m 0
          in
          eq1 = Tree.shr t m)
        members)

(* §3.1: the local detour never exceeds the global one, whatever tree and
   whatever failed on-tree link (not just the worst case). *)
let local_le_global_any_link =
  QCheck.Test.make ~name:"local <= global for every on-tree link failure" ~count:60
    QCheck.small_int (fun seed ->
      let g, source, members = scene seed in
      let t = Spf.build g ~source ~members in
      List.for_all
        (fun eid ->
          let f = Failure.Link eid in
          List.for_all
            (fun m ->
              match (Recovery.local_detour t f ~member:m, global_detour t f ~member:m) with
              | Some l, Some gl -> l.Recovery.recovery_distance <= gl.Recovery.recovery_distance +. 1e-9
              | None, Some _ -> false
              | _ -> true)
            (Failure.affected_members t f))
        (Tree.tree_edges t))

(* Join/leave round trip: leaving everything returns the empty tree. *)
let full_churn_empties_tree =
  QCheck.Test.make ~name:"leaving all members returns to the bare source" ~count:100
    QCheck.small_int (fun seed ->
      let g, source, members = scene seed in
      let t = Smrp.build ~d_thresh:0.3 g ~source ~members in
      List.iter (Tree.remove_member t) members;
      Tree.on_tree_nodes t = [ source ] && Tree.validate t = Ok ())

(* Join order changes the tree but never its member set or validity. *)
let join_order_immaterial_for_membership =
  QCheck.Test.make ~name:"any join order yields a valid tree with the same members" ~count:80
    QCheck.small_int (fun seed ->
      let g, source, members = scene seed in
      let t1 = Smrp.build ~d_thresh:0.3 g ~source ~members in
      let t2 = Smrp.build ~d_thresh:0.3 g ~source ~members:(List.rev members) in
      Tree.validate t1 = Ok () && Tree.validate t2 = Ok ()
      && Tree.members t1 = Tree.members t2)

(* Session repair conserves members: repaired + lost = affected. *)
let session_repair_conserves_members =
  QCheck.Test.make ~name:"session repair conserves members" ~count:60 QCheck.small_int
    (fun seed ->
      let g, source, members = scene seed in
      let s = Session.create g ~source ~protocol:(Session.Smrp { d_thresh = 0.3 }) in
      List.iter (Session.join s) members;
      match Failure.worst_case_for_member (Session.tree s) (List.hd members) with
      | None -> true
      | Some f ->
          let affected = Failure.affected_members (Session.tree s) f in
          let repairs = Session.fail s f in
          let lost =
            List.filter_map (function Session.Lost m -> Some m | _ -> None) (Session.events s)
          in
          List.length affected = List.length repairs + List.length lost
          && Tree.validate (Session.tree s) = Ok ())

(* Reshaping is idempotent at the fixpoint stabilize reaches (when it
   converged before the round limit). *)
let stabilize_idempotent =
  QCheck.Test.make ~name:"stabilize is idempotent once converged" ~count:60 QCheck.small_int
    (fun seed ->
      let g, source, members = scene seed in
      let t = Smrp.build ~d_thresh:0.3 g ~source ~members in
      let first = Reshape.stabilize ~d_thresh:0.3 ~max_rounds:20 t in
      if first.Reshape.rounds >= 20 then true (* did not converge; skip *)
      else
        let again = Reshape.stabilize ~d_thresh:0.3 ~max_rounds:20 t in
        again.Reshape.switches = 0)

(* Dijkstra with failure filters equals Dijkstra on a physically rebuilt
   graph (filters are semantically a graph edit). *)
let filters_equal_rebuilt_graph =
  QCheck.Test.make ~name:"failure filters behave like physical edge removal" ~count:60
    QCheck.small_int (fun seed ->
      let g, source, _ = scene seed in
      if Graph.edge_count g = 0 then true
      else begin
        let rng = Rng.create (seed + 1) in
        let eid = Rng.int rng (Graph.edge_count g) in
        let f = Failure.Link eid in
        let rebuilt = Graph.create (Graph.node_count g) in
        Graph.iter_edges
          (fun e ->
            if e.Graph.id <> eid then
              ignore (Graph.add_edge rebuilt e.Graph.u e.Graph.v e.Graph.delay))
          g;
        let r1 = Dijkstra.run ~edge_ok:(Failure.edge_ok g f) g ~source in
        let r2 = Dijkstra.run rebuilt ~source in
        List.for_all
          (fun v -> Dijkstra.distance r1 v = Dijkstra.distance r2 v)
          (List.init (Graph.node_count g) Fun.id)
      end)

(* The workspace-backed CSR Dijkstra against the retained seed
   implementation: identical distances, parents and paths (not just
   reachability) under every filter combination, so each specialised search
   loop is exercised.  The workspace is dirtied by a run from a different
   source first, proving epoch-stamped clearing hides stale state. *)
let workspace_dijkstra_equals_reference =
  QCheck.Test.make ~name:"workspace Dijkstra equals the reference oracle under random filters"
    ~count:120 QCheck.small_int (fun seed ->
      let g, source, _ = scene seed in
      let n = Graph.node_count g in
      let rng = Rng.create (seed + 7) in
      (* mode 0: no filters (fast path); 1: absorb only; 2: everything. *)
      let mode = Rng.int rng 3 in
      let blocked = Array.init n (fun v -> v <> source && Rng.int rng 10 = 0) in
      let eblocked = Array.init (Graph.edge_count g) (fun _ -> Rng.int rng 10 = 0) in
      let absorbed = Array.init n (fun _ -> Rng.int rng 6 = 0) in
      let ws = Dijkstra.workspace () in
      ignore (Dijkstra.run ~workspace:ws g ~source:(if source = 0 then n - 1 else 0));
      let r, oracle =
        match mode with
        | 0 -> (Dijkstra.run ~workspace:ws g ~source, Dijkstra.run_reference g ~source)
        | 1 ->
            let absorb v = absorbed.(v) in
            ( Dijkstra.run ~absorb ~workspace:ws g ~source,
              Dijkstra.run_reference ~absorb g ~source )
        | _ ->
            let node_ok v = not blocked.(v)
            and edge_ok e = not eblocked.(e)
            and absorb v = absorbed.(v) in
            ( Dijkstra.run ~node_ok ~edge_ok ~absorb ~workspace:ws g ~source,
              Dijkstra.run_reference ~node_ok ~edge_ok ~absorb g ~source )
      in
      List.for_all
        (fun v ->
          Dijkstra.distance r v = Dijkstra.distance oracle v
          && Dijkstra.path_nodes r v = Dijkstra.path_nodes oracle v
          && Dijkstra.path_edges r v = Dijkstra.path_edges oracle v)
        (List.init n Fun.id))

(* -- Nearest-target search ------------------------------------------------ *)

(* Random graphs with delays in {1, 2, 3}, so targets tie on distance
   often.  [connected] first lays a random spanning tree. *)
let int_delay_graph rng ~connected =
  let n = 3 + Rng.int rng 28 in
  let g = Graph.create n in
  let add u v =
    if u <> v && not (Graph.mem_edge g u v) then
      ignore (Graph.add_edge g u v (float_of_int (1 + Rng.int rng 3)))
  in
  if connected then for v = 1 to n - 1 do add v (Rng.int rng v) done;
  for _ = 1 to n * (1 + Rng.int rng 3) / 2 do
    add (Rng.int rng n) (Rng.int rng n)
  done;
  g

let detour_hit (d : Recovery.detour) =
  {
    Dijkstra.target = d.Recovery.merge;
    dist = d.Recovery.recovery_distance;
    nodes = d.Recovery.path_nodes;
    edges = d.Recovery.path_edges;
  }

(* Random sources, node and edge filters and target sets — empty ones, and
   ones the filters or a disconnected graph leave unreachable, included. *)
let nearest_equals_reference_scan =
  QCheck.Test.make ~name:"nearest-target search equals the reference search and scan" ~count:300
    QCheck.small_int (fun seed ->
      let rng = Rng.create seed in
      let g = int_delay_graph rng ~connected:(Rng.bool rng) in
      let n = Graph.node_count g in
      let source = Rng.int rng n in
      let density = Rng.int rng 5 in
      let is_target = Array.init n (fun _ -> Rng.int rng 8 < density) in
      let blocked = Array.init n (fun v -> v <> source && Rng.int rng 8 = 0) in
      let eblocked = Array.init (Graph.edge_count g) (fun _ -> Rng.int rng 8 = 0) in
      let target v = is_target.(v) in
      let ws = Dijkstra.workspace () in
      ignore (Dijkstra.run ~workspace:ws g ~source:(n - 1 - source));
      if Rng.bool rng then
        Dijkstra.nearest ~workspace:ws g ~source ~target = Oracle.naive_nearest g ~source ~target
      else begin
        let node_ok v = not blocked.(v) and edge_ok e = not eblocked.(e) in
        Dijkstra.nearest ~node_ok ~edge_ok ~workspace:ws g ~source ~target
        = Oracle.naive_nearest ~node_ok ~edge_ok g ~source ~target
      end)

(* The two detour searches built on it, over SPF trees and random single or
   correlated failures. *)
let detours_equal_reference_scan =
  QCheck.Test.make ~name:"local and branch detours equal the reference search and scan"
    ~count:200 QCheck.small_int (fun seed ->
      let rng = Rng.create seed in
      let g = int_delay_graph rng ~connected:true in
      let n = Graph.node_count g in
      let source = Rng.int rng n in
      let members =
        List.filter (fun v -> v <> source) (List.init (1 + Rng.int rng (n - 1)) (fun _ -> Rng.int rng n))
      in
      let t = Spf.build g ~source ~members:(List.sort_uniq compare members) in
      let on_tree = Array.of_list (List.filter (fun v -> v <> source) (Tree.on_tree_nodes t)) in
      let edges = Array.of_list (Tree.tree_edges t) in
      let one () =
        if Array.length on_tree > 0 && Rng.bool rng then Failure.Node (Rng.pick rng on_tree)
        else if Array.length edges > 0 && Rng.bool rng then Failure.Link (Rng.pick rng edges)
        else Failure.Link (Rng.int rng (Graph.edge_count g))
      in
      let f = if Rng.int rng 4 = 0 then Failure.compose [ one (); one () ] else one () in
      let node_ok = Failure.node_ok f and edge_ok = Failure.edge_ok g f in
      let surviving = Failure.tree_connected t f in
      let local_ok m =
        let expect =
          if not (node_ok m) || surviving.(m) then None
          else Oracle.naive_nearest ~node_ok ~edge_ok g ~source:m ~target:(fun v -> surviving.(v))
        in
        match Recovery.local_detour t f ~member:m with
        | Some d when d.Recovery.path_edges = [] -> node_ok m && surviving.(m)
        | d -> Option.map detour_hit d = expect
      in
      let branch_ok root =
        let eligible_set = Array.init n (fun v -> Tree.is_on_tree t v && Rng.int rng 3 > 0) in
        let eligible v = eligible_set.(v) && node_ok v in
        let expect =
          if not (node_ok root) then None
          else
            Oracle.naive_nearest
              ~node_ok:(fun v -> node_ok v && (v = root || (not (Tree.is_on_tree t v)) || eligible v))
              ~edge_ok g ~source:root ~target:eligible
        in
        Option.map detour_hit (Recovery.branch_detour t f ~root ~eligible) = expect
      in
      List.for_all local_ok (List.init n Fun.id)
      && Array.for_all branch_ok on_tree)

(* [shortest_path] settles only the shortest paths to [dst], bounded by
   [dst]'s own SPF over the same graph; the reference runs the whole
   search.  Every [dst] is asked, so [src = dst] is always covered, and
   filtered-out or disconnected targets whenever the draw has them. *)
let shortest_path_equals_reference =
  QCheck.Test.make ~name:"single-target shortest_path equals the reference search" ~count:300
    QCheck.small_int (fun seed ->
      let rng = Rng.create seed in
      let g = int_delay_graph rng ~connected:(Rng.bool rng) in
      let n = Graph.node_count g in
      let src = Rng.int rng n in
      let blocked = Array.init n (fun v -> v <> src && Rng.int rng 8 = 0) in
      let eblocked = Array.init (Graph.edge_count g) (fun _ -> Rng.int rng 8 = 0) in
      let node_ok v = not blocked.(v) and edge_ok e = not eblocked.(e) in
      let filtered = Rng.bool rng in
      let ws = Dijkstra.workspace () in
      let reference =
        if filtered then Dijkstra.run_reference ~node_ok ~edge_ok g ~source:src
        else Dijkstra.run_reference g ~source:src
      in
      List.for_all
        (fun dst ->
          let lower =
            if not filtered then Dijkstra.distances (Dijkstra.run_reference g ~source:dst)
            else if node_ok dst then
              Dijkstra.distances (Dijkstra.run_reference ~node_ok ~edge_ok g ~source:dst)
            else Array.make n infinity
          in
          let got =
            if filtered then
              Dijkstra.shortest_path ~node_ok ~edge_ok ~workspace:ws g ~src ~dst ~lower
            else Dijkstra.shortest_path ~workspace:ws g ~src ~dst ~lower
          in
          let expect =
            match
              ( Dijkstra.distance reference dst,
                Dijkstra.path_nodes reference dst,
                Dijkstra.path_edges reference dst )
            with
            | Some d, Some nodes, Some edges -> Some (d, nodes, edges)
            | _ -> None
          in
          got = expect)
        (List.init n Fun.id))

(* Random nested failures: links, nodes, ids outside the graph, repeated
   elements, and a dead node together with some of its own links. *)
let random_failure rng g =
  let n = Graph.node_count g and m = Graph.edge_count g in
  let atom () =
    match Rng.int rng 10 with
    | 0 -> Failure.Link (m + Rng.int rng 2)
    | 1 -> Failure.Node (if Rng.bool rng then -1 else n + Rng.int rng 2)
    | k when k < 6 && m > 0 -> Failure.Link (Rng.int rng m)
    | _ -> Failure.Node (Rng.int rng n)
  in
  let atoms = List.init (Rng.int rng 5) (fun _ -> atom ()) in
  let atoms =
    if Rng.bool rng then begin
      let u = Rng.int rng n in
      let links =
        List.filter_map
          (fun (_, e) -> if Rng.bool rng then Some (Failure.Link e) else None)
          (Graph.neighbors g u)
      in
      (Failure.Node u :: links) @ atoms
    end
    else atoms
  in
  let atoms =
    match atoms with
    | [] -> atoms
    | _ -> List.init (Rng.int rng 3) (fun _ -> Rng.pick rng (Array.of_list atoms)) @ atoms
  in
  let rec nest = function
    | ([] | [ _ ]) as atoms -> Failure.compose atoms
    | atoms when Rng.int rng 3 = 0 -> Failure.compose atoms
    | atoms ->
        let k = 1 + Rng.int rng (List.length atoms - 1) in
        let front = List.filteri (fun i _ -> i < k) atoms
        and back = List.filteri (fun i _ -> i >= k) atoms in
        Failure.compose [ nest front; nest back ]
  in
  nest atoms

let filters_equal_predicates =
  QCheck.Test.make ~name:"compiled failure filters equal node_ok and edge_ok" ~count:400
    QCheck.small_int (fun seed ->
      let rng = Rng.create seed in
      let g = int_delay_graph rng ~connected:(Rng.bool rng) in
      let n = Graph.node_count g and m = Graph.edge_count g in
      let f = random_failure rng g in
      let node_ok, edge_ok = Failure.filters g f in
      List.for_all (fun v -> node_ok v = Failure.node_ok f v) (List.init (n + 4) (fun i -> i - 2))
      && List.for_all
           (fun e ->
             match Failure.edge_ok g f e with
             | ok -> edge_ok e = ok
             | exception Invalid_argument _ -> true (* an id [Graph.edge] rejects *))
           (List.init (m + 4) (fun i -> i - 2)))

(* The session's byte mask, extended failure by failure, answers as the
   one-off compile of the composition of every failure killed so far, for
   every id of the graph. *)
let mask_equals_filters =
  QCheck.Test.make ~name:"a failure mask equals the compiled filters of its failures" ~count:300
    QCheck.small_int (fun seed ->
      let rng = Rng.create seed in
      let g = int_delay_graph rng ~connected:(Rng.bool rng) in
      let n = Graph.node_count g and m = Graph.edge_count g in
      let mask = Failure.mask g in
      let node_ok, edge_ok = Failure.mask_filters mask in
      let in_graph = function
        | Failure.Link e -> e >= 0 && e < m
        | Failure.Node v -> v >= 0 && v < n
        | Failure.Multi _ -> true
      in
      let rec valid f =
        in_graph f && match f with Failure.Multi fs -> List.for_all valid fs | _ -> true
      in
      let killed = ref [] in
      List.for_all
        (fun _ ->
          let f = random_failure rng g in
          if valid f then begin
            Failure.kill mask f;
            killed := f :: !killed
          end;
          let all = Failure.compose !killed in
          let node_ok', edge_ok' = Failure.filters g all in
          List.for_all (fun v -> node_ok v = node_ok' v) (List.init n Fun.id)
          && List.for_all (fun e -> edge_ok e = edge_ok' e) (List.init m Fun.id))
        (List.init 4 Fun.id))

(* One random session grown by joins at a random d_thresh (0 included), on a
   small Waxman graph with [`Unit] or Euclidean delays (so exact ties
   occur), under 0-3 accumulated failures.  Every join that runs the
   candidate search is checked against the unbounded reference: the merge
   [Oracle.naive_select] picks over [Oracle.naive_candidates], grafted along
   the reference search's path.  Returns the joins checked, how many of
   them had no candidate inside the bound (where the bounded search finds
   nothing and the full search runs), and whether all matched.

   Such joins are rare in random churn, so the generator plants them.
   Each core node gets up to two pendant leaves.  A leaf can reach the tree
   only through its anchor, so once a repair leaves the anchor on a tree
   path longer than its unicast distance, the leaf's only merge point may
   lie outside a tight bound.  After each failure the generator joins the
   leaves of such anchors. *)
let bounded_join_session seed =
  let rng = Rng.create seed in
  let core = 6 + Rng.int rng 20 in
  let link_delay = if Rng.bool rng then `Euclidean else `Unit in
  let alpha = 0.2 +. Rng.float rng 0.6 in
  let wax = (Waxman.generate ~link_delay rng ~n:core ~alpha ~beta:0.3).Waxman.graph in
  let anchors =
    List.filter (fun _ -> Rng.int rng 10 < 7) (List.init core Fun.id @ List.init core Fun.id)
  in
  let n = core + List.length anchors in
  let g = Graph.create n in
  Graph.iter_edges (fun e -> ignore (Graph.add_edge g e.Graph.u e.Graph.v e.Graph.delay)) wax;
  List.iteri
    (fun i a ->
      let w = match link_delay with `Unit -> 1.0 | `Euclidean -> 0.01 +. Rng.float rng 0.3 in
      ignore (Graph.add_edge g (core + i) a w))
    anchors;
  let m = Graph.edge_count g in
  let d_thresh = Rng.pick rng [| 0.0; 0.0; 0.0; 0.05; 0.3; 1.0 |] in
  let source = Rng.int rng core in
  (* A query session's joins run the candidate search only once a failure
     is active; before that they grow a tree by the query scheme. *)
  let query = Rng.bool rng in
  let protocol = if query then Session.Smrp_query { d_thresh } else Session.Smrp { d_thresh } in
  let s = Session.create ~protection:(Rng.bool rng) g ~source ~protocol in
  let checked = ref 0 and fallbacks = ref 0 and ok = ref true in
  let reference failure =
    let node_ok v = match failure with None -> true | Some f -> Failure.node_ok f v in
    let edge_ok e = match failure with None -> true | Some f -> Failure.edge_ok g f e in
    (node_ok, edge_ok)
  in
  let join v =
    let t = Session.tree s in
    let failure = Session.active_failure s in
    if (not (Tree.is_member t v)) && Session.reachable s v then begin
      if (query && failure = None) || Tree.is_on_tree t v then Session.join s v
      else begin
        let node_ok, edge_ok = reference failure in
        let spf_distance =
          Option.get (Dijkstra.distance (Dijkstra.run_reference ~node_ok ~edge_ok g ~source) v)
        in
        let cands = Oracle.naive_candidates ?failure t ~joiner:v in
        let bound = ((1.0 +. d_thresh) *. spf_distance) +. 1e-9 in
        if not (List.exists (fun c -> c.Oracle.total_delay <= bound) cands) then incr fallbacks;
        let merge =
          (Option.get (Oracle.naive_select ~d_thresh ~spf_distance cands)).Oracle.merge
        in
        let search =
          Dijkstra.run_reference ~node_ok ~edge_ok
            ~absorb:(fun u -> Tree.is_on_tree t u && node_ok u)
            g ~source:v
        in
        let expect =
          Option.get (Dijkstra.path_nodes search merge) @ List.tl (Tree.path_to_source t merge)
        in
        Session.join s v;
        incr checked;
        if Tree.path_to_source (Session.tree s) v <> expect then ok := false
      end
    end
  in
  let churn () =
    let v = Rng.int rng n in
    if Tree.is_member (Session.tree s) v then begin
      if Rng.int rng 3 = 0 then Session.leave s v
    end
    else join v
  in
  (* On-tree anchors whose tree path is longer than their unicast
     distance. *)
  let stretched () =
    let t = Session.tree s in
    let node_ok, edge_ok = reference (Session.active_failure s) in
    if not (node_ok source) then fun _ -> false
    else begin
      let r = Dijkstra.run_reference ~node_ok ~edge_ok g ~source in
      fun a ->
        Tree.is_on_tree t a
        &&
        match Dijkstra.distance r a with
        | Some d -> Tree.delay_to_source t a > d +. 1e-9
        | None -> false
    end
  in
  for _ = 1 to core / 2 do
    churn ()
  done;
  for _ = 1 to Rng.int rng 4 do
    let f =
      match Tree.members (Session.tree s) with
      | _ :: _ as ms when Rng.int rng 4 > 0 -> (
          match Failure.worst_case_for_member (Session.tree s) (Rng.pick rng (Array.of_list ms)) with
          | Some f -> f
          | None -> Failure.Node (Rng.int rng n))
      | _ -> if m > 0 && Rng.bool rng then Failure.Link (Rng.int rng m) else Failure.Node (Rng.int rng n)
    in
    if f <> Failure.Node source then ignore (Session.fail s f : Session.repair list);
    let stretched = stretched () in
    List.iteri (fun i a -> if stretched a then join (core + i)) anchors;
    for _ = 1 to core / 8 do
      churn ()
    done
  done;
  (!checked, !fallbacks, !ok)

let bounded_join_equals_oracle =
  QCheck.Test.make ~name:"bounded SMRP joins graft what the unbounded oracle picks" ~count:400
    QCheck.small_int (fun seed ->
      let _, _, ok = bounded_join_session seed in
      ok)

(* The property above must exercise the fallback: a join with no merge
   point inside the bound, where the bounded search finds nothing and the
   full search runs. *)
let bounded_join_fallback_share () =
  let checked = ref 0 and fallbacks = ref 0 in
  for seed = 0 to 399 do
    let c, f, _ = bounded_join_session seed in
    checked := !checked + c;
    fallbacks := !fallbacks + f
  done;
  let share = float_of_int !fallbacks /. float_of_int !checked in
  Printf.printf "bounded joins: %d of %d checked joins (%.1f%%) had no candidate inside the bound\n"
    !fallbacks !checked (100.0 *. share);
  Alcotest.(check bool) "at least 5% of joins fall back" true (share >= 0.05)

(* SPF and query-scheme sessions on delays in {1, 2, 3}, so shortest paths
   tie often, against unicast paths read off the reference search.  Before
   each off-tree join the expected tree path is computed: an SPF join
   grafts the reference path up to its first on-tree node; a query join,
   with no failure active, takes what selection over the reference answers
   picks (and [Query.candidates] must give those answers path for path),
   or the SPF graft when none answers.  After each failure of an SPF
   session, the staged repair is replayed from the surviving tree: every
   global detour must be the reference path to the first node still
   receiving data, and a member is lost only when the source is out of its
   reach.  Returns the joins and the non-trivial detours checked, and the
   verdict. *)
let unicast_session seed =
  let rng = Rng.create seed in
  let g = int_delay_graph rng ~connected:(Rng.int rng 4 > 0) in
  let n = Graph.node_count g and m = Graph.edge_count g in
  let source = Rng.int rng n in
  let d_thresh = Rng.pick rng [| 0.0; 0.3; 1.0 |] in
  let query = Rng.bool rng in
  let protocol = if query then Session.Smrp_query { d_thresh } else Session.Spf in
  let s = Session.create g ~source ~protocol in
  let joins = ref 0 and detours = ref 0 and ok = ref true in
  let expect_ok b = if not b then ok := false in
  let on_source t (nodes, _) =
    let merge = List.nth nodes (List.length nodes - 1) in
    nodes @ List.tl (Tree.path_to_source t merge)
  in
  let join v =
    let t = Session.tree s in
    let failure = Session.active_failure s in
    if Tree.is_member t v || not (Session.reachable s v) then ()
    else if Tree.is_on_tree t v || (query && failure <> None) then Session.join s v
    else begin
      let spf_graft () =
        Option.map (on_source t)
          (Oracle.naive_unicast_prefix ?failure t ~from:v ~stop:(Tree.is_on_tree t))
      in
      let expect =
        if not query then spf_graft ()
        else begin
          let qcands = Oracle.naive_query_candidates t ~joiner:v in
          let path (c : Oracle.naive_candidate) =
            (c.Oracle.merge, c.Oracle.attach_nodes, c.Oracle.attach_edges)
          in
          let answers = Query.candidates t ~joiner:v ~spf:(Smrp.source_spf t) in
          expect_ok
            (List.map
               (fun (c : Smrp.candidate) ->
                 (c.Smrp.merge, c.Smrp.attach_nodes, c.Smrp.attach_edges))
               answers
            = List.map path qcands);
          let spf_distance =
            Option.get (Dijkstra.distance (Dijkstra.run_reference g ~source) v)
          in
          match Oracle.naive_select ~d_thresh ~spf_distance qcands with
          | Some c ->
              Some (List.rev c.Oracle.attach_nodes @ List.tl (Tree.path_to_source t c.Oracle.merge))
          | None -> spf_graft ()
        end
      in
      Session.join s v;
      incr joins;
      expect_ok (expect = Some (Tree.path_to_source (Session.tree s) v))
    end
  in
  let repairs_ok pre f_all repairs lost =
    let replay = Recovery.surviving_tree pre f_all in
    List.iter
      (fun (r : Session.repair) ->
        let d = r.Session.detour in
        expect_ok
          (Oracle.naive_unicast_prefix ~failure:f_all replay ~from:d.Recovery.member
             ~stop:(Tree.is_on_tree replay)
          = Some (d.Recovery.path_nodes, d.Recovery.path_edges));
        if d.Recovery.path_edges <> [] then begin
          incr detours;
          Tree.graft replay
            ~nodes:(List.rev d.Recovery.path_nodes)
            ~edges:(List.rev d.Recovery.path_edges)
        end;
        Tree.add_member replay d.Recovery.member)
      repairs;
    List.iter
      (fun v ->
        expect_ok
          (Oracle.naive_unicast_prefix ~failure:f_all replay ~from:v ~stop:(fun _ -> true) = None))
      lost
  in
  let churn () =
    let v = Rng.int rng n in
    if Tree.is_member (Session.tree s) v then begin
      if Rng.int rng 3 = 0 then Session.leave s v
    end
    else join v
  in
  for _ = 1 to n do
    churn ()
  done;
  for _ = 1 to Rng.int rng 4 do
    let f =
      let t = Session.tree s in
      match Tree.members t with
      | _ :: _ as ms when Rng.bool rng -> (
          match Failure.worst_case_for_member t (Rng.pick rng (Array.of_list ms)) with
          | Some f -> f
          | None -> Failure.Node (Rng.int rng n))
      | _ ->
          if m > 0 && Rng.int rng 3 > 0 then Failure.Link (Rng.int rng m)
          else Failure.Node (Rng.int rng n)
    in
    if f <> Failure.Node source then begin
      let pre = Tree.copy (Session.tree s) and events = List.length (Session.events s) in
      let repairs = Session.fail s f in
      let lost =
        List.filteri (fun i _ -> i >= events) (Session.events s)
        |> List.filter_map (function Session.Lost v -> Some v | _ -> None)
      in
      if not query then repairs_ok pre (Option.get (Session.active_failure s)) repairs lost
    end;
    for _ = 1 to n / 2 do
      churn ()
    done
  done;
  (!joins, !detours, !ok)

let unicast_paths_equal_reference =
  QCheck.Test.make ~name:"SPF grafts, query answers and global detours follow the reference paths"
    ~count:400 QCheck.small_int (fun seed ->
      let _, _, ok = unicast_session seed in
      ok)

(* The property above must see joins and global detours, not only trivial
   repairs. *)
let unicast_session_coverage () =
  let joins = ref 0 and detours = ref 0 in
  for seed = 0 to 399 do
    let j, d, _ = unicast_session seed in
    joins := !joins + j;
    detours := !detours + d
  done;
  Printf.printf "unicast sessions: %d joins and %d global detours checked\n" !joins !detours;
  Alcotest.(check bool) "joins checked" true (!joins >= 1000);
  Alcotest.(check bool) "global detours checked" true (!detours >= 100)

(* The goal-directed search against the reference search with the same
   filters and absorb, on delays in {1, 2, 3} so distances tie often.
   [lower] is the goal's SPF over the whole graph, or over the graph the
   search itself sees; the limit is (1 + d_thresh) times the searcher's
   own distance to the goal, as an SMRP join sets it, with d_thresh 0
   (where the goal's shortest path is the only way in) drawn most often,
   and one run in four has no bound at all.  Every node inside the bound —
   its reference distance plus [lower] at most the limit — must be settled
   with the reference's distance and path and listed once, and the list
   must hold nothing outside the bound but the searcher.  Without a bound
   the list is exactly the nodes the reference reaches. *)
let pruned_search_equals_full =
  QCheck.Test.make ~name:"goal-directed search settles every in-bound node as the full search"
    ~count:500 QCheck.small_int (fun seed ->
      let rng = Rng.create seed in
      let g = int_delay_graph rng ~connected:(Rng.int rng 4 > 0) in
      let n = Graph.node_count g in
      let goal = Rng.int rng n and source = Rng.int rng n in
      let blocked = Array.init n (fun v -> v <> source && Rng.int rng 8 = 0) in
      let eblocked = Array.init (Graph.edge_count g) (fun _ -> Rng.int rng 8 = 0) in
      let absorbed = Array.init n (fun v -> v = goal || Rng.int rng 5 = 0) in
      let absorb v = absorbed.(v) in
      (* mode 0: absorb only; 1: node filter; 2: node and edge filters. *)
      let mode = Rng.int rng 3 in
      let node_ok = if mode = 0 then None else Some (fun v -> not blocked.(v)) in
      let edge_ok = if mode = 2 then Some (fun e -> not eblocked.(e)) else None in
      let lower =
        if mode = 0 || Rng.bool rng || blocked.(goal) then
          Dijkstra.distances (Dijkstra.run_reference g ~source:goal)
        else Dijkstra.distances (Dijkstra.run_reference ?node_ok ?edge_ok g ~source:goal)
      in
      let d_thresh = Rng.pick rng [| 0.0; 0.0; 0.0; 0.3; 1.0 |] in
      let limit =
        if lower.(source) = infinity then float_of_int (Rng.int rng 8)
        else ((1.0 +. d_thresh) *. lower.(source)) +. 1e-9
      in
      let bounded = Rng.int rng 4 > 0 in
      let limit = if bounded then limit else infinity in
      let bound = if bounded then Some (limit, lower) else None in
      let full = Dijkstra.run_reference ?node_ok ?edge_ok ~absorb g ~source in
      let ws = Dijkstra.workspace () in
      let pruned = Dijkstra.run ?node_ok ?edge_ok ~absorb ?bound ~workspace:ws g ~source in
      let listed = Array.make n 0 in
      Array.iter (fun v -> listed.(v) <- listed.(v) + 1) (Dijkstra.settled_by_id (fun _ -> true) pruned);
      let slack = 1e-9 *. (1.0 +. abs_float limit) in
      List.for_all
        (fun v ->
          let inside =
            match Dijkstra.distance full v with
            | Some d -> d +. lower.(v) <= limit
            | None -> false
          in
          listed.(v) <= 1
          && (listed.(v) = 0 || v = source
             ||
             match Dijkstra.distance pruned v with
             | Some d -> d +. lower.(v) <= limit +. slack
             | None -> false)
          && (bounded || listed.(v) = Bool.to_int (Dijkstra.reachable full v))
          && ((not inside)
             || listed.(v) = 1
                && Dijkstra.distance pruned v = Dijkstra.distance full v
                && Dijkstra.path_edges pruned v = Dijkstra.path_edges full v))
        (List.init n Fun.id))

(* After every step of a random join/leave/fail schedule, the session's
   incremental answer against a fresh reference search from the source.
   Failures come in bursts, so a read finds several of them queued. *)
let session_reachable_equals_reference =
  QCheck.Test.make ~name:"Session.reachable equals the reference search after every step"
    ~count:150 QCheck.small_int (fun seed ->
      let rng = Rng.create seed in
      let g = int_delay_graph rng ~connected:(Rng.int rng 4 > 0) in
      let n = Graph.node_count g and m = Graph.edge_count g in
      let source = Rng.int rng n in
      let protocol =
        match Rng.int rng 3 with
        | 0 -> Session.Spf
        | 1 -> Session.Smrp { d_thresh = 0.3 }
        | _ -> Session.Smrp_query { d_thresh = 0.3 }
      in
      let s = Session.create ~protection:(Rng.bool rng) g ~source ~protocol in
      let reference () =
        let r =
          match Session.active_failure s with
          | None -> Some (Dijkstra.run_reference g ~source)
          | Some f when Failure.node_ok f source ->
              Some
                (Dijkstra.run_reference ~node_ok:(Failure.node_ok f)
                   ~edge_ok:(Failure.edge_ok g f) g ~source)
          | Some _ -> None (* the source's router is dead *)
        in
        Array.init n (fun v -> match r with Some r -> Dijkstra.reachable r v | None -> false)
      in
      let step () =
        match Rng.int rng 4 with
        | 0 | 1 ->
            let v = Rng.int rng n in
            if (not (Tree.is_member (Session.tree s) v)) && (reference ()).(v) then Session.join s v
        | 2 -> (
            match Tree.members (Session.tree s) with
            | [] -> ()
            | ms -> Session.leave s (Rng.pick rng (Array.of_list ms)))
        | _ ->
            for _ = 0 to Rng.int rng 3 do
              let f =
                if m > 0 && Rng.bool rng then Failure.Link (Rng.int rng m)
                else if Rng.int rng 20 = 0 then Failure.Node source
                else Failure.Node (Rng.int rng n)
              in
              ignore (Session.fail s f : Session.repair list)
            done
      in
      List.for_all
        (fun _ ->
          step ();
          let expect = reference () in
          List.for_all (fun v -> Session.reachable s v = expect.(v)) (List.init n Fun.id))
        (List.init 20 Fun.id))

(* The domain-pool contract: fanning scenarios out over domains is
   byte-identical to the sequential map, member by member and float by
   float. *)
let run_many_jobs_immaterial =
  QCheck.Test.make ~name:"Scenario.run_many is identical whatever the job count" ~count:3
    QCheck.small_int (fun seed ->
      let configs =
        List.init 4 (fun i ->
            { Scenario.default with Scenario.n = 40; group_size = 8; seed = (73 * seed) + i })
      in
      let seq = Scenario.run_many ~jobs:1 configs in
      let par = Scenario.run_many ~jobs:4 configs in
      List.for_all2
        (fun a b ->
          a.Scenario.source = b.Scenario.source
          && a.Scenario.members = b.Scenario.members
          && a.Scenario.outcomes = b.Scenario.outcomes
          && a.Scenario.average_degree = b.Scenario.average_degree
          && a.Scenario.cost_spf = b.Scenario.cost_spf
          && a.Scenario.cost_smrp = b.Scenario.cost_smrp
          && Scenario.aggregates a = Scenario.aggregates b)
        seq par)

(* The timer wheel against the reference heap, driven directly: both must
   answer every [min_tick] alike and pop the same eids in the same order.
   Ticks are drawn relative to the last popped tick (the engine's clock) to
   hit the wheel's corners: ties, descending bursts inside one level-0 slot,
   runs either side of a 2^b slot edge for every b (every level of any
   power-of-two layout), adds below the hand, and ticks past the horizon. *)
module Wheel = Smrp_sim.Engine_wheel
module Heap = Smrp_sim.Engine_reference

type wheel_op =
  | Pop
  | Min
  | Near of int  (** last popped tick + d *)
  | Tie  (** the tick of the previous add *)
  | Edge of int * int * int  (** [(b, k, off)]: [off] from the k-th 2^b boundary ahead *)
  | Burst of int * int  (** [(n, d)]: n ticks descending to last popped + d *)
  | Below of int  (** d ticks before the last popped tick *)
  | Far of int * int  (** [(b, d)]: 2^b + d past the last popped tick *)

let show_wheel_op = function
  | Pop -> "Pop"
  | Min -> "Min"
  | Near d -> Printf.sprintf "Near %d" d
  | Tie -> "Tie"
  | Edge (b, k, off) -> Printf.sprintf "Edge (%d, %d, %d)" b k off
  | Burst (n, d) -> Printf.sprintf "Burst (%d, %d)" n d
  | Below d -> Printf.sprintf "Below %d" d
  | Far (b, d) -> Printf.sprintf "Far (%d, %d)" b d

let wheel_ops =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (5, return Pop);
        (2, return Min);
        (3, map (fun d -> Near d) (int_bound 64));
        (1, return Tie);
        (* k near 32 and near every power of two up to 2^11 crosses the
           window edge of rings of any power-of-two size up to 2048 slots *)
        ( 4,
          map3
            (fun b k off -> Edge (b, k, off))
            (int_bound 40)
            (oneof [ int_bound 33; map2 (fun p j -> (1 lsl p) + j) (int_range 5 11) (int_range (-1) 1) ])
            (int_range (-3) 3) );
        (2, map2 (fun n d -> Burst (n, d)) (int_range 2 12) (int_bound (1 lsl 20)));
        (1, map (fun d -> Below d) (int_range 1 (1 lsl 24)));
        (1, map2 (fun b d -> Far (b, d)) (int_range 30 45) (int_bound 1000));
      ]
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_wheel_op ops))
    ~shrink:QCheck.Shrink.list
    (list_size (int_range 1 300) op)

let wheel_equals_reference_heap =
  QCheck.Test.make ~name:"timer wheel pops exactly the reference heap's sequence" ~count:1000 wheel_ops
    (fun ops ->
      let w = Wheel.create () and h = Heap.create () in
      let seq = ref 0 and clock = ref 0 and last = ref 0 and ok = ref true in
      let add tick =
        let tick = max 0 tick in
        Wheel.add w ~tick ~seq:!seq ~eid:!seq;
        Heap.add h ~tick ~seq:!seq ~eid:!seq;
        incr seq;
        last := tick
      in
      let check_min () = if Wheel.min_tick w <> Heap.min_tick h then ok := false in
      let pop () =
        let tick = Heap.min_tick h in
        if Wheel.pop_min w <> Heap.pop_min h then ok := false
        else if tick <> max_int then clock := tick
      in
      List.iter
        (function
          | Pop -> pop ()
          | Min -> check_min ()
          | Near d -> add (!clock + d)
          | Tie -> add !last
          | Edge (b, k, off) -> add ((((!clock asr b) + k) lsl b) + off)
          | Burst (n, d) ->
              for i = n - 1 downto 0 do
                add (!clock + d + i)
              done
          | Below d -> add (!clock - d)
          | Far (b, d) -> add (!clock + (1 lsl b) + d))
        ops;
      while !ok && Heap.min_tick h <> max_int do
        check_min ();
        pop ()
      done;
      !ok && Wheel.min_tick w = max_int && Wheel.pop_min w = -1)

let () =
  Alcotest.run "properties"
    [
      ( "paper_invariants",
        [
          qcheck_case bound_respected;
          qcheck_case shr_matches_link_definition;
          qcheck_case local_le_global_any_link;
        ] );
      ( "structural",
        [
          qcheck_case full_churn_empties_tree;
          qcheck_case join_order_immaterial_for_membership;
          qcheck_case session_repair_conserves_members;
          qcheck_case stabilize_idempotent;
          qcheck_case filters_equal_rebuilt_graph;
        ] );
      ( "performance_refactor",
        [
          qcheck_case workspace_dijkstra_equals_reference;
          qcheck_case nearest_equals_reference_scan;
          qcheck_case detours_equal_reference_scan;
          qcheck_case shortest_path_equals_reference;
          qcheck_case filters_equal_predicates;
          qcheck_case mask_equals_filters;
          qcheck_case bounded_join_equals_oracle;
          Alcotest.test_case "bounded joins exercise the fallback" `Quick
            bounded_join_fallback_share;
          qcheck_case pruned_search_equals_full;
          qcheck_case unicast_paths_equal_reference;
          Alcotest.test_case "unicast sessions check joins and detours" `Quick
            unicast_session_coverage;
          qcheck_case session_reachable_equals_reference;
          qcheck_case run_many_jobs_immaterial;
          qcheck_case wheel_equals_reference_heap;
        ] );
    ]
