(* The Takahashi–Matsuyama cost-minimising baseline. *)

module Graph = Smrp_graph.Graph
module Rng = Smrp_rng.Rng
module Waxman = Smrp_topology.Waxman
module Fixtures = Smrp_topology.Fixtures
module Tree = Smrp_core.Tree
module Spf = Smrp_core.Spf
module Steiner = Smrp_core.Steiner

(* Property tests run with a pinned PRNG state so failures are
   reproducible run over run. *)
let qcheck_case t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 424242 |]) t

let check = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let assert_valid t = match Tree.validate t with Ok () -> () | Error e -> Alcotest.fail e

let classic_steiner_case () =
  (* A case where SPF is strictly worse than Steiner: two members behind a
     shared "highway".  Topology: s-h (3.0), h-a (1.0), h-b (1.0), s-a (3.5),
     s-b (3.5).  SPF joins a and b by their direct 3.5 links (cost 7.0); the
     heuristic connects a directly (3.5 < 4) but then reaches b through the
     shared h-a spur (cost 2), totalling 5.5 — between the optimum (5.0) and
     SPF, as a 2-approximation should. *)
  let g = Graph.create 4 in
  let s = 0 and h = 1 and a = 2 and b = 3 in
  ignore (Graph.add_edge g s h 3.0);
  ignore (Graph.add_edge g h a 1.0);
  ignore (Graph.add_edge g h b 1.0);
  ignore (Graph.add_edge g s a 3.5);
  ignore (Graph.add_edge g s b 3.5);
  let spf = Spf.build g ~source:s ~members:[ a; b ] in
  let steiner = Steiner.build g ~source:s ~members:[ a; b ] in
  check_float "SPF pays for disjoint direct links" 7.0 (Tree.total_cost spf);
  check_float "Steiner shares the spur" 5.5 (Tree.total_cost steiner);
  assert_valid steiner

let build_order_is_nearest_first () =
  (* On a line, the Takahashi–Matsuyama order connects members nearest
     first regardless of the list order; the result is the same chain. *)
  let g = Fixtures.line 6 in
  let t = Steiner.build g ~source:0 ~members:[ 5; 2; 4 ] in
  Alcotest.(check (list int)) "chain" [ 5; 4; 3; 2; 1; 0 ] (Tree.path_to_source t 5);
  assert_valid t

let join_attaches_cheapest () =
  let g = Fixtures.diamond () in
  let t = Steiner.build g ~source:0 ~members:[ 3 ] in
  check "member joined" true (Tree.is_member t 3);
  check_float "two unit links" 2.0 (Tree.total_cost t);
  assert_valid t

let errors () =
  let g = Graph.create 3 in
  ignore (Graph.add_edge g 0 1 1.0);
  Alcotest.check_raises "unreachable"
    (Invalid_argument "Steiner.build: some member cannot reach the tree") (fun () ->
      ignore (Steiner.build g ~source:0 ~members:[ 1; 2 ]));
  let t = Steiner.build g ~source:0 ~members:[ 1; 1 ] in
  Alcotest.(check int) "a repeated member joins once" 1 (Tree.member_count t)

let qcheck_steiner_bounded_by_star_cost =
  (* The provable bound: each greedy connection costs at most the member's
     distance to the source (the source is always on the tree), so the TM
     tree costs at most Σ d(s, m).  (The heuristic is NOT always cheaper
     than the SPF tree — SPF paths can overlap luckily — so that is not a
     law; on average it wins, which Cost_min measures.) *)
  QCheck.Test.make ~name:"Steiner cost is bounded by the shortest-path star" ~count:100
    QCheck.small_int (fun seed ->
      let rng = Rng.create seed in
      let n = 20 + Rng.int rng 50 in
      let topo = Waxman.generate rng ~n ~alpha:0.2 ~beta:0.2 in
      let k = 2 + Rng.int rng 12 in
      let sample = Smrp_rng.Rng.sample_without_replacement rng (k + 1) n in
      let source = List.hd sample and members = List.tl sample in
      let steiner = Steiner.build topo.Waxman.graph ~source ~members in
      let dist =
        Smrp_graph.Dijkstra.distances (Smrp_graph.Dijkstra.run topo.Waxman.graph ~source)
      in
      let star =
        List.fold_left (fun acc m -> if dist.(m) < infinity then acc +. dist.(m) else acc) 0.0 members
      in
      Tree.validate steiner = Ok () && Tree.total_cost steiner <= star +. 1e-9)

let qcheck_steiner_valid_trees =
  QCheck.Test.make ~name:"Steiner trees validate with all members" ~count:100 QCheck.small_int
    (fun seed ->
      let rng = Rng.create seed in
      let n = 15 + Rng.int rng 40 in
      let topo = Waxman.generate rng ~n ~alpha:0.25 ~beta:0.25 in
      let k = 2 + Rng.int rng 10 in
      let sample = Smrp_rng.Rng.sample_without_replacement rng (k + 1) n in
      let t =
        Steiner.build topo.Waxman.graph ~source:(List.hd sample) ~members:(List.tl sample)
      in
      Tree.validate t = Ok () && List.for_all (Tree.is_member t) (List.tl sample))

let conjecture_experiment_shapes () =
  let r = Smrp_experiments.Cost_min.run ~seed:4 ~scenarios:6 () in
  let open Smrp_metrics.Stats in
  check "Steiner cheaper than SPF" true
    (r.Smrp_experiments.Cost_min.cost_spf_vs_steiner.mean >= 0.0);
  check "conjecture: advantage persists vs cost-min" true
    (r.Smrp_experiments.Cost_min.rd_vs_steiner.mean
    >= r.Smrp_experiments.Cost_min.rd_vs_spf.mean -. 0.05);
  check "renders" true
    (String.length (Smrp_experiments.Cost_min.render r) > 80)

let () =
  Alcotest.run "steiner"
    [
      ( "heuristic",
        [
          Alcotest.test_case "classic sharing case" `Quick classic_steiner_case;
          Alcotest.test_case "nearest-first order" `Quick build_order_is_nearest_first;
          Alcotest.test_case "join attaches cheapest" `Quick join_attaches_cheapest;
          Alcotest.test_case "errors" `Quick errors;
        ] );
      ( "properties",
        [
          qcheck_case qcheck_steiner_bounded_by_star_cost;
          qcheck_case qcheck_steiner_valid_trees;
        ] );
      ( "conjecture",
        [ Alcotest.test_case "experiment shapes" `Quick conjecture_experiment_shapes ] );
    ]
