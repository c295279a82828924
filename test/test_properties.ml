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
module Scenario = Smrp_experiments.Scenario
module Oracle = Smrp_check.Oracle

(* Property tests run with a pinned PRNG state so failures are
   reproducible run over run. *)
let qcheck_case t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 424242 |]) t

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
                 (fun c -> c.Smrp.total_delay <= ((1.0 +. d_thresh) *. spf) +. 1e-9)
                 (Smrp.candidates t ~joiner:m)
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
              match (Recovery.local_detour t f ~member:m, Recovery.global_detour t f ~member:m) with
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
              ignore (Graph.add_edge ~cost:e.Graph.cost rebuilt e.Graph.u e.Graph.v e.Graph.delay))
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
          && Dijkstra.parent r v = Dijkstra.parent oracle v
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

(* [shortest_path] stops once [dst] settles; the reference runs the whole
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
          let got =
            if filtered then Dijkstra.shortest_path ~node_ok ~edge_ok ~workspace:ws g ~src ~dst
            else Dijkstra.shortest_path ~workspace:ws g ~src ~dst
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
          qcheck_case session_reachable_equals_reference;
          qcheck_case run_many_jobs_immaterial;
        ] );
    ]
