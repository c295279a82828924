(* Redundant trees (Medard et al. [16]): construction, the per-node
   link-disjointness guarantee, and single-failure survival. *)

module Graph = Smrp_graph.Graph
module Connectivity = Smrp_graph.Connectivity
module Rng = Smrp_rng.Rng
module Waxman = Smrp_topology.Waxman
module Fixtures = Smrp_topology.Fixtures
module Failure = Smrp_core.Failure
module Redundant = Smrp_core.Redundant

(* Property tests run with a pinned PRNG state so failures are
   reproducible run over run. *)
let qcheck_case t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 424242 |]) t

let check = Alcotest.(check bool)

let every_node_protected g t =
  let n = Graph.node_count g in
  let ok = ref true in
  (* The source's own paths are empty, so it passes trivially. *)
  for v = 0 to n - 1 do
    if not (Redundant.paths_disjoint t v) then ok := false;
    (* Any single link failure leaves v connected through one tree. *)
    Graph.iter_edges
      (fun e -> if not (Redundant.survives t (Failure.Link e.Graph.id) ~member:v) then ok := false)
      g
  done;
  !ok

let ring_builds () =
  let g = Fixtures.ring 6 in
  let t = Option.get (Redundant.build g ~source:0) in
  check "every node protected" true (every_node_protected g t);
  (* On a ring the red and blue paths are the two ways around: three hops
     each for the opposite node, and together every link. *)
  Alcotest.(check (float 1e-9)) "faster path" 3.0 (Redundant.delay t 3);
  Alcotest.(check (float 1e-9)) "slower path" 3.0 (Redundant.worst_delay t 3);
  Alcotest.(check (float 1e-9)) "together they cover the ring" 6.0
    (Redundant.provisioned_cost t ~receivers:[ 3 ])

let diamond_builds () =
  let g = Fixtures.diamond () in
  let t = Option.get (Redundant.build g ~source:0) in
  check "every node protected" true (every_node_protected g t)

let grid_builds () =
  let g = Fixtures.grid 4 in
  let t = Option.get (Redundant.build g ~source:5) in
  check "every node protected" true (every_node_protected g t)

let line_rejected () =
  check "bridges make it impossible" true (Redundant.build (Fixtures.line 4) ~source:0 = None)

let pendant_rejected () =
  (* A triangle with a pendant node: 2-edge-connected except the pendant. *)
  let g = Graph.create 4 in
  ignore (Graph.add_edge g 0 1 1.0);
  ignore (Graph.add_edge g 1 2 1.0);
  ignore (Graph.add_edge g 2 0 1.0);
  ignore (Graph.add_edge g 2 3 1.0);
  check "rejected" true (Redundant.build g ~source:0 = None)

let disconnected_rejected () =
  let g = Graph.create 4 in
  ignore (Graph.add_edge g 0 1 1.0);
  ignore (Graph.add_edge g 2 3 1.0);
  check "rejected" true (Redundant.build g ~source:0 = None)

let two_blocks_share_source () =
  (* Two cycles sharing only the source: 2-edge-connected (every edge on a
     cycle) but not 2-vertex-connected — the closed-ear case. *)
  let g = Graph.create 5 in
  ignore (Graph.add_edge g 0 1 1.0);
  ignore (Graph.add_edge g 1 2 1.0);
  ignore (Graph.add_edge g 2 0 1.0);
  ignore (Graph.add_edge g 0 3 1.0);
  ignore (Graph.add_edge g 3 4 1.0);
  ignore (Graph.add_edge g 4 0 1.0);
  let t = Option.get (Redundant.build g ~source:0) in
  check "every node protected" true (every_node_protected g t)

let closed_ear_off_source () =
  (* A cycle with a second cycle hanging off a non-source node. *)
  let g = Graph.create 6 in
  ignore (Graph.add_edge g 0 1 1.0);
  ignore (Graph.add_edge g 1 2 1.0);
  ignore (Graph.add_edge g 2 0 1.0);
  ignore (Graph.add_edge g 2 3 1.0);
  ignore (Graph.add_edge g 3 4 1.0);
  ignore (Graph.add_edge g 4 5 1.0);
  ignore (Graph.add_edge g 5 2 1.0);
  let t = Option.get (Redundant.build g ~source:0) in
  check "every node protected" true (every_node_protected g t)

let delays_and_cost () =
  let g = Fixtures.ring 4 in
  let t = Option.get (Redundant.build g ~source:0) in
  check "delay is the faster path" true (Redundant.delay t 1 <= Redundant.worst_delay t 1);
  let cost_all = Redundant.provisioned_cost t ~receivers:[ 1; 2; 3 ] in
  (* All four ring edges are provisioned. *)
  Alcotest.(check (float 1e-9)) "whole ring provisioned" 4.0 cost_all;
  let cost_one = Redundant.provisioned_cost t ~receivers:[ 1 ] in
  check "subset costs less or equal" true (cost_one <= cost_all)

let singleton_graph () =
  let g = Graph.create 1 in
  let t = Option.get (Redundant.build g ~source:0) in
  Alcotest.(check (float 0.0)) "the source is its own path" 0.0 (Redundant.delay t 0);
  Alcotest.(check (float 0.0)) "nothing provisioned" 0.0 (Redundant.provisioned_cost t ~receivers:[ 0 ])

let qcheck_protection_on_2ec_graphs =
  QCheck.Test.make ~name:"MFBG protects every node on 2-edge-connected Waxman graphs" ~count:80
    QCheck.small_int (fun seed ->
      let rng = Rng.create seed in
      let n = 8 + Rng.int rng 30 in
      (* Dense draws are usually 2-edge-connected; skip the rest. *)
      let topo = Waxman.generate rng ~n ~alpha:0.8 ~beta:0.6 in
      let g = topo.Waxman.graph in
      if Connectivity.bridges g <> [] then true
      else
        match Redundant.build g ~source:0 with
        | None -> false (* bridgeless connected graph must build *)
        | Some t -> every_node_protected g t)

let qcheck_rejects_bridged_graphs =
  QCheck.Test.make ~name:"construction rejects exactly the bridged graphs" ~count:80
    QCheck.small_int (fun seed ->
      let rng = Rng.create seed in
      let n = 6 + Rng.int rng 30 in
      let topo = Waxman.generate rng ~n ~alpha:0.2 ~beta:0.2 in
      let g = topo.Waxman.graph in
      let has_bridge = Connectivity.bridges g <> [] in
      match Redundant.build g ~source:0 with
      | None -> has_bridge
      | Some _ -> not has_bridge)

let () =
  Alcotest.run "redundant"
    [
      ( "construction",
        [
          Alcotest.test_case "ring" `Quick ring_builds;
          Alcotest.test_case "diamond" `Quick diamond_builds;
          Alcotest.test_case "grid" `Quick grid_builds;
          Alcotest.test_case "two blocks at the source" `Quick two_blocks_share_source;
          Alcotest.test_case "closed ear off the source" `Quick closed_ear_off_source;
          Alcotest.test_case "singleton" `Quick singleton_graph;
        ] );
      ( "rejection",
        [
          Alcotest.test_case "line" `Quick line_rejected;
          Alcotest.test_case "pendant" `Quick pendant_rejected;
          Alcotest.test_case "disconnected" `Quick disconnected_rejected;
        ] );
      ("metrics", [ Alcotest.test_case "delays and cost" `Quick delays_and_cost ]);
      ( "properties",
        [
          qcheck_case qcheck_protection_on_2ec_graphs;
          qcheck_case qcheck_rejects_bridged_graphs;
        ] );
    ]
