module Graph = Smrp_graph.Graph
module Dijkstra = Smrp_graph.Dijkstra
module Connectivity = Smrp_graph.Connectivity
module Subgraph = Smrp_graph.Subgraph
module Fixtures = Smrp_topology.Fixtures

(* Property tests run with a pinned PRNG state so failures are
   reproducible run over run. *)
let qcheck_case t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 424242 |]) t

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))
let check_ilist = Alcotest.(check (list int))

let connected ?edge_ok g = snd (Connectivity.components ?edge_ok g) <= 1

(* -- Graph basics ------------------------------------------------------ *)

let build_basics () =
  let g = Graph.create 3 in
  let e01 = Graph.add_edge g 0 1 1.5 in
  let e12 = Graph.add_edge g 1 2 2.5 in
  check_int "node count" 3 (Graph.node_count g);
  check_int "edge count" 2 (Graph.edge_count g);
  check_int "ids dense" 1 e12;
  check_float "delay" 1.5 (Graph.edge g e01).Graph.delay;
  check_float "total delay" 4.0 (Graph.fold_edges (fun acc e -> acc +. e.Graph.delay) 0.0 g);
  check_float "average degree" (4.0 /. 3.0) (Graph.average_degree g)

let rejects_bad_edges () =
  let g = Graph.create 2 in
  ignore (Graph.add_edge g 0 1 1.0);
  Alcotest.check_raises "duplicate" (Invalid_argument "Graph.add_edge: duplicate edge") (fun () ->
      ignore (Graph.add_edge g 1 0 1.0));
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.add_edge: self-loop") (fun () ->
      ignore (Graph.add_edge g 0 0 1.0));
  Alcotest.check_raises "non-positive delay" (Invalid_argument "Graph.add_edge: delay must be positive")
    (fun () ->
      let g' = Graph.create 2 in
      ignore (Graph.add_edge g' 0 1 0.0))

(* NaN passes a [<= 0.0] test and infinity is positive: both used to be
   accepted as link delays. *)
let rejects_non_finite_weights () =
  let fresh () = Graph.create 2 in
  List.iter
    (fun d ->
      Alcotest.check_raises (Printf.sprintf "delay %h" d) (Invalid_argument "Graph.add_edge: non-finite delay")
        (fun () -> ignore (Graph.add_edge (fresh ()) 0 1 d)))
    [ nan; infinity ];
  let g = fresh () in
  Alcotest.check_raises "rejected edge leaves no trace" (Invalid_argument "Graph.add_edge: non-finite delay")
    (fun () -> ignore (Graph.add_edge g 0 1 nan));
  check_int "no edge added" 0 (Graph.edge_count g)

let neighbors_and_lookup () =
  let g = Fixtures.diamond () in
  check_ilist "neighbors of 0" [ 1; 2 ] (List.map fst (Graph.neighbors g 0));
  check_int "degree" 2 (Graph.degree g 3);
  check "mem" true (Graph.mem_edge g 1 3);
  check "not mem" false (Graph.mem_edge g 0 3);
  let e = Option.get (Graph.edge_between g 2 3) in
  check "edge_between finds the link" true (List.sort compare [ e.Graph.u; e.Graph.v ] = [ 2; 3 ]);
  check "symmetric" true (Graph.edge_between g 3 2 = Some e)

let csr_matches_neighbors () =
  let g = Fixtures.diamond () in
  (* iter_neighbors enumerates exactly what neighbors lists, with the
     edge's delay attached, node by node. *)
  for u = 0 to Graph.node_count g - 1 do
    let seen = ref [] in
    Graph.iter_neighbors g u (fun v eid delay ->
        check_float (Printf.sprintf "delay of edge %d" eid) (Graph.edge g eid).Graph.delay delay;
        seen := (v, eid) :: !seen);
    Alcotest.(check (list (pair int int)))
      (Printf.sprintf "neighbors of %d" u)
      (Graph.neighbors g u) (List.rev !seen)
  done;
  (* The raw CSR arrays tell the same story. *)
  let offsets, nbr, eids, delays = Graph.csr g in
  check_int "offsets span" (Graph.node_count g + 1) (Array.length offsets);
  check_int "one slot per edge direction" (2 * Graph.edge_count g) (Array.length nbr);
  for u = 0 to Graph.node_count g - 1 do
    check_int (Printf.sprintf "degree of %d" u) (Graph.degree g u) (offsets.(u + 1) - offsets.(u));
    for i = offsets.(u) to offsets.(u + 1) - 1 do
      let e = Graph.edge g eids.(i) in
      check_int "neighbor is the other end" (if e.Graph.u = u then e.Graph.v else e.Graph.u) nbr.(i);
      check_float "delay slot" e.Graph.delay delays.(i)
    done
  done

(* Degenerate freezes: the CSR arrays must keep their shape invariants
   (offsets has n+1 slots, all zero when there are no edges) so iteration
   and the raw-array consumers (Dspf, Protect) never special-case n <= 1. *)
let freeze_empty () =
  let g = Graph.create 0 in
  Graph.freeze g;
  let offsets, nbr, eids, delays = Graph.csr g in
  check_ilist "offsets of empty graph" [ 0 ] (Array.to_list offsets);
  check_int "no adjacency slots" 0 (Array.length nbr);
  check_int "no eid slots" 0 (Array.length eids);
  check_int "no delay slots" 0 (Array.length delays);
  (* Freeze is idempotent and survives a redundant second call. *)
  Graph.freeze g;
  check_int "still empty" 0 (Array.length (let _, a, _, _ = Graph.csr g in a))

let freeze_single_node () =
  let g = Graph.create 1 in
  Graph.freeze g;
  let offsets, nbr, _, _ = Graph.csr g in
  check_ilist "offsets of 1-node graph" [ 0; 0 ] (Array.to_list offsets);
  check_int "no adjacency slots" 0 (Array.length nbr);
  check_int "degree of the only node" 0 (Graph.degree g 0);
  let visited = ref 0 in
  Graph.iter_neighbors g 0 (fun _ _ _ -> incr visited);
  check_int "iteration visits nothing" 0 !visited;
  Alcotest.(check (list (pair int int))) "neighbors empty" [] (Graph.neighbors g 0)

let csr_rebuilds_after_mutation () =
  let g = Graph.create 3 in
  ignore (Graph.add_edge g 0 1 1.0);
  Graph.freeze g;
  let count u =
    let c = ref 0 in
    Graph.iter_neighbors g u (fun _ _ _ -> incr c);
    !c
  in
  check_int "degree before" 1 (count 0);
  (* Adding an edge invalidates the frozen view; the next read rebuilds. *)
  ignore (Graph.add_edge g 0 2 1.0);
  check_int "degree after" 2 (count 0);
  check "new edge visible to mem_edge" true (Graph.mem_edge g 2 0);
  check "absent edge" false (Graph.mem_edge g 1 2);
  check_int "new edge visible to find_edge" 1 (Graph.find_edge g 2 0)

(* The CSR lookup agrees with the build-side chain walk on every ordered
   pair, adjacent or not. *)
let find_edge_matches_edge_between () =
  let g = Fixtures.diamond () in
  for u = 0 to Graph.node_count g - 1 do
    for v = 0 to Graph.node_count g - 1 do
      let expect = match Graph.edge_between g u v with Some e -> e.Graph.id | None -> -1 in
      check_int (Printf.sprintf "edge %d-%d" u v) expect (Graph.find_edge g u v)
    done
  done;
  Alcotest.check_raises "node out of range" (Invalid_argument "Graph.find_edge: node 4 out of range")
    (fun () -> ignore (Graph.find_edge g 0 4))

(* -- Dijkstra ---------------------------------------------------------- *)

let line_distances () =
  let g = Fixtures.line 5 in
  let r = Dijkstra.run g ~source:0 in
  List.iteri
    (fun i expected -> check_float (Printf.sprintf "dist to %d" i) expected (Option.get (Dijkstra.distance r i)))
    [ 0.0; 1.0; 2.0; 3.0; 4.0 ];
  check_ilist "path nodes" [ 0; 1; 2; 3 ] (Option.get (Dijkstra.path_nodes r 3));
  check_int "path edge count" 3 (List.length (Option.get (Dijkstra.path_edges r 3)))

let grid_distance () =
  let g = Fixtures.grid 4 in
  let r = Dijkstra.run g ~source:0 in
  check_float "manhattan corner" 6.0 (Option.get (Dijkstra.distance r 15))

let blocked_node_forces_detour () =
  let g = Fixtures.diamond () in
  let r = Dijkstra.run ~node_ok:(fun v -> v <> 1) g ~source:0 in
  check_float "detour via 2" 2.0 (Option.get (Dijkstra.distance r 3));
  check_ilist "path avoids 1" [ 0; 2; 3 ] (Option.get (Dijkstra.path_nodes r 3))

let blocked_edge_forces_detour () =
  let g = Fixtures.ring 4 in
  let eid = (Option.get (Graph.edge_between g 0 1)).Graph.id in
  let r = Dijkstra.run ~edge_ok:(fun e -> e <> eid) g ~source:0 in
  check_float "around the ring" 3.0 (Option.get (Dijkstra.distance r 1))

let unreachable () =
  let g = Graph.create 3 in
  ignore (Graph.add_edge g 0 1 1.0);
  let r = Dijkstra.run g ~source:0 in
  check "no distance" true (Dijkstra.distance r 2 = None);
  check "no path" true (Dijkstra.path_nodes r 2 = None);
  check "reachable" true (Dijkstra.reachable r 1)

let absorbing_stops_relaxation () =
  (* Line 0-1-2-3 where 1 absorbs: 2 and 3 must be unreachable even though
     the graph connects them through 1. *)
  let g = Fixtures.line 4 in
  let r = Dijkstra.run ~absorb:(fun v -> v = 1) g ~source:0 in
  check "reaches absorber" true (Dijkstra.reachable r 1);
  check "cannot pass through" false (Dijkstra.reachable r 2)

let absorbing_source_still_relaxes () =
  let g = Fixtures.line 3 in
  let r = Dijkstra.run ~absorb:(fun v -> v = 0) g ~source:0 in
  check "source absorb ignored" true (Dijkstra.reachable r 2)

let absorbing_picks_off_tree_interior () =
  (* Diamond: target 3 absorbing, both 1 and 2 ordinary: path goes through
     the cheaper interior. *)
  let g = Fixtures.diamond () in
  let r = Dijkstra.run ~absorb:(fun v -> v = 1 || v = 3) g ~source:0 in
  check_float "direct to 1" 1.0 (Option.get (Dijkstra.distance r 1));
  check_ilist "to 3 via 2 only" [ 0; 2; 3 ] (Option.get (Dijkstra.path_nodes r 3))

let shortest_path_convenience () =
  let g = Fixtures.diamond () in
  match Dijkstra.shortest_path g ~src:0 ~dst:3 ~lower:(Dijkstra.distances (Dijkstra.run g ~source:3)) with
  | Some (d, nodes, edges) ->
      check_float "delay" 2.0 d;
      check_int "nodes" 3 (List.length nodes);
      check_int "edges" 2 (List.length edges)
  | None -> Alcotest.fail "expected path"

(* -- Connectivity ------------------------------------------------------ *)

let components_basic () =
  let g = Graph.create 5 in
  ignore (Graph.add_edge g 0 1 1.0);
  ignore (Graph.add_edge g 2 3 1.0);
  let comp, count = Connectivity.components g in
  check_int "three components" 3 count;
  check "0 and 1 together" true (comp.(0) = comp.(1));
  check "2 and 3 together" true (comp.(2) = comp.(3));
  check "4 alone" true (comp.(4) <> comp.(0) && comp.(4) <> comp.(2))

let filtered_connectivity () =
  let g = Fixtures.ring 5 in
  let eid = (Option.get (Graph.edge_between g 0 1)).Graph.id in
  check "ring stays connected without one edge" true
    (connected ~edge_ok:(fun e -> e <> eid) g);
  let eid2 = (Option.get (Graph.edge_between g 2 3)).Graph.id in
  check "two cuts split it" false
    (connected ~edge_ok:(fun e -> e <> eid && e <> eid2) g)

let reachable_from () =
  let g = Fixtures.line 4 in
  let seen = Connectivity.reachable_from ~node_ok:(fun v -> v <> 2) g 0 in
  check "reaches 1" true seen.(1);
  check "blocked at 2" false seen.(2);
  check "cannot pass" false seen.(3)

let bridges_line () =
  let g = Fixtures.line 4 in
  check_int "all edges are bridges" 3 (List.length (Connectivity.bridges g))

let bridges_ring () =
  let g = Fixtures.ring 5 in
  check_ilist "no bridges in a cycle" [] (Connectivity.bridges g)

let bridges_mixed () =
  (* A triangle with a pendant: only the pendant edge is a bridge. *)
  let g = Graph.create 4 in
  ignore (Graph.add_edge g 0 1 1.0);
  ignore (Graph.add_edge g 1 2 1.0);
  ignore (Graph.add_edge g 2 0 1.0);
  let pendant = Graph.add_edge g 2 3 1.0 in
  check_ilist "pendant only" [ pendant ] (Connectivity.bridges g)

(* -- Subgraph ---------------------------------------------------------- *)

let subgraph_extract () =
  let g = Fixtures.diamond () in
  let sub = Subgraph.extract g ~keep:(fun v -> v <> 1) in
  check_int "three nodes" 3 (Graph.node_count sub.Subgraph.graph);
  check_int "two edges" 2 (Graph.edge_count sub.Subgraph.graph);
  check "dropped node unmapped" true (Subgraph.node_to_sub sub 1 = None);
  let s0 = Option.get (Subgraph.node_to_sub sub 0) in
  check_int "round trip" 0 (Subgraph.node_from_sub sub s0);
  (* Edge ids map back onto original ids. *)
  Array.iteri
    (fun sub_id orig_id ->
      let se = Graph.edge sub.Subgraph.graph sub_id in
      let oe = Graph.edge g orig_id in
      check_float "delay preserved" oe.Graph.delay se.Graph.delay)
    sub.Subgraph.edge_from_sub

(* -- Properties -------------------------------------------------------- *)

let random_graph seed n extra_edges =
  let rng = Smrp_rng.Rng.create seed in
  let g = Graph.create n in
  (* Random spanning tree plus chords: always connected. *)
  for v = 1 to n - 1 do
    let u = Smrp_rng.Rng.int rng v in
    ignore (Graph.add_edge g u v (0.1 +. Smrp_rng.Rng.float rng 5.0))
  done;
  for _ = 1 to extra_edges do
    let u = Smrp_rng.Rng.int rng n and v = Smrp_rng.Rng.int rng n in
    if u <> v && not (Graph.mem_edge g u v) then
      ignore (Graph.add_edge g u v (0.1 +. Smrp_rng.Rng.float rng 5.0))
  done;
  g

let qcheck_triangle_inequality =
  QCheck.Test.make ~name:"dijkstra satisfies the triangle inequality on edges" ~count:100
    QCheck.(pair small_int (int_range 2 40))
    (fun (seed, n) ->
      let g = random_graph seed n n in
      let r = Dijkstra.run g ~source:0 in
      Graph.fold_edges
        (fun ok e ->
          ok
          &&
          match (Dijkstra.distance r e.Graph.u, Dijkstra.distance r e.Graph.v) with
          | Some du, Some dv -> dv <= du +. e.Graph.delay +. 1e-9 && du <= dv +. e.Graph.delay +. 1e-9
          | _ -> false)
        true g)

let qcheck_bridge_removal_disconnects =
  QCheck.Test.make ~name:"removing a bridge disconnects; removing a non-bridge does not" ~count:60
    QCheck.(pair small_int (int_range 3 30))
    (fun (seed, n) ->
      let g = random_graph seed n (n / 2) in
      let bridges = Connectivity.bridges g in
      Graph.fold_edges
        (fun ok e ->
          ok
          &&
          let still = connected ~edge_ok:(fun id -> id <> e.Graph.id) g in
          if List.mem e.Graph.id bridges then not still else still)
        true g)

(* Every build-side lookup against a [Hashtbl] model of the edge set, on
   random insert sequences: duplicates in both orientations, self-loops,
   nodes out of range and freezes between the inserts.  Each insert's id
   or [Invalid_argument] message must be the model's; at each freeze,
   every ordered pair's [mem_edge] and [edge_between] must be the model's
   both before and after the freeze, and after it [find_edge] and each
   node's [neighbors] order too. *)
type op = Add of int * int | Again of int * bool | Freeze

let qcheck_build_side_matches_model =
  let gen =
    QCheck.Gen.(
      int_range 1 30 >>= fun n ->
      let node = int_bound n in
      list_size (int_range 0 150)
        (frequency
           [
             (6, map2 (fun u v -> Add (u, v)) node node);
             (3, map2 (fun k flip -> Again (k, flip)) nat bool);
             (1, map (fun u -> Add (u, u)) node);
             (1, return Freeze);
           ])
      >|= fun ops -> (n, ops))
  in
  let print (n, ops) =
    Printf.sprintf "n = %d: %s" n
      (String.concat " "
         (List.map
            (function
              | Add (u, v) -> Printf.sprintf "+%d-%d" u v
              | Again (k, flip) -> Printf.sprintf "again%d%s" k (if flip then "'" else "")
              | Freeze -> "freeze")
            ops))
  in
  QCheck.Test.make ~name:"build-side lookups match a Hashtbl model" ~count:300 (QCheck.make ~print gen)
    (fun (n, ops) ->
      let g = Graph.create n in
      let ids = Hashtbl.create 64 in
      let ends = ref [||] and tried = ref [] in
      let key u v = (min u v, max u v) in
      let expect_add u v =
        let out w = w < 0 || w >= n in
        if out u then Error (Printf.sprintf "Graph.add_edge: node %d out of range" u)
        else if out v then Error (Printf.sprintf "Graph.add_edge: node %d out of range" v)
        else if Hashtbl.mem ids (key u v) then Error "Graph.add_edge: duplicate edge"
        else if u = v then Error "Graph.add_edge: self-loop"
        else Ok (Array.length !ends)
      in
      let add u v =
        tried := (u, v) :: !tried;
        let expect = expect_add u v in
        let got =
          match Graph.add_edge g u v (1.0 +. float_of_int (List.length !tried)) with
          | id -> Ok id
          | exception Invalid_argument m -> Error m
        in
        (match expect with
        | Ok id ->
            Hashtbl.replace ids (key u v) id;
            ends := Array.append !ends [| (u, v) |]
        | Error _ -> ());
        got = expect
      in
      let lookups_agree () =
        let ok = ref true in
        for u = 0 to n - 1 do
          for v = 0 to n - 1 do
            let expect = Hashtbl.find_opt ids (key u v) in
            let ends_of id = (id, fst !ends.(id), snd !ends.(id)) in
            ok :=
              !ok
              && Graph.mem_edge g u v = (expect <> None)
              && Option.map (fun e -> (e.Graph.id, e.Graph.u, e.Graph.v)) (Graph.edge_between g u v)
                 = Option.map ends_of expect
          done
        done;
        !ok
      in
      let frozen_agree () =
        let ok = ref true in
        for u = 0 to n - 1 do
          for v = 0 to n - 1 do
            let expect = Option.value ~default:(-1) (Hashtbl.find_opt ids (key u v)) in
            ok := !ok && Graph.find_edge g u v = expect
          done;
          let expect =
            List.filter_map
              (fun (id, (a, b)) -> if a = u then Some (b, id) else if b = u then Some (a, id) else None)
              (List.mapi (fun id e -> (id, e)) (Array.to_list !ends))
          in
          ok := !ok && Graph.neighbors g u = expect
        done;
        !ok
      in
      let checkpoint () =
        let before = lookups_agree () in
        Graph.freeze g;
        before && lookups_agree () && frozen_agree ()
      in
      List.for_all
        (function
          | Add (u, v) -> add u v
          | Again (k, flip) -> (
              match !tried with
              | [] -> true
              | l ->
                  let u, v = List.nth l (k mod List.length l) in
                  if flip then add v u else add u v)
          | Freeze -> checkpoint ())
        ops
      && checkpoint ())

let () =
  Alcotest.run "graph"
    [
      ( "basics",
        [
          Alcotest.test_case "build and inspect" `Quick build_basics;
          Alcotest.test_case "rejects bad edges" `Quick rejects_bad_edges;
          Alcotest.test_case "rejects non-finite weights" `Quick rejects_non_finite_weights;
          Alcotest.test_case "neighbors and lookup" `Quick neighbors_and_lookup;
          Alcotest.test_case "CSR matches neighbors" `Quick csr_matches_neighbors;
          Alcotest.test_case "freeze empty graph" `Quick freeze_empty;
          Alcotest.test_case "freeze single node" `Quick freeze_single_node;
          Alcotest.test_case "CSR rebuilds after mutation" `Quick csr_rebuilds_after_mutation;
          Alcotest.test_case "find_edge matches edge_between" `Quick find_edge_matches_edge_between;
        ] );
      ( "dijkstra",
        [
          Alcotest.test_case "line distances" `Quick line_distances;
          Alcotest.test_case "grid distance" `Quick grid_distance;
          Alcotest.test_case "blocked node detour" `Quick blocked_node_forces_detour;
          Alcotest.test_case "blocked edge detour" `Quick blocked_edge_forces_detour;
          Alcotest.test_case "unreachable" `Quick unreachable;
          Alcotest.test_case "absorbing stops relaxation" `Quick absorbing_stops_relaxation;
          Alcotest.test_case "absorbing source still relaxes" `Quick absorbing_source_still_relaxes;
          Alcotest.test_case "absorbing interior choice" `Quick absorbing_picks_off_tree_interior;
          Alcotest.test_case "shortest_path convenience" `Quick shortest_path_convenience;
        ] );
      ( "connectivity",
        [
          Alcotest.test_case "components" `Quick components_basic;
          Alcotest.test_case "filtered connectivity" `Quick filtered_connectivity;
          Alcotest.test_case "reachable_from" `Quick reachable_from;
          Alcotest.test_case "bridges on a line" `Quick bridges_line;
          Alcotest.test_case "bridges on a ring" `Quick bridges_ring;
          Alcotest.test_case "bridges mixed" `Quick bridges_mixed;
        ] );
      ( "subgraph",
        [
          Alcotest.test_case "extract" `Quick subgraph_extract;
        ] );
      ( "properties",
        [
          qcheck_case qcheck_triangle_inequality;
          qcheck_case qcheck_bridge_removal_disconnects;
          qcheck_case qcheck_build_side_matches_model;
        ] );
    ]
