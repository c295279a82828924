(* Flat random-graph families and the cross-family experiment. *)

module Rng = Smrp_rng.Rng
module Graph = Smrp_graph.Graph
module Connectivity = Smrp_graph.Connectivity
module Waxman = Smrp_topology.Waxman
module Flat_models = Smrp_topology.Flat_models
module Families = Smrp_experiments.Families
module Stats = Smrp_metrics.Stats

(* Property tests run with a pinned PRNG state so failures are
   reproducible run over run. *)
let qcheck_case t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 424242 |]) t

let check = Alcotest.(check bool)

let connected g = snd (Connectivity.components g) <= 1
let check_int = Alcotest.(check int)

let pure_random_basic () =
  let t = Flat_models.pure_random (Rng.create 2) ~n:60 ~p:0.08 in
  check_int "node count" 60 (Graph.node_count t.Waxman.graph);
  check "connected" true (connected t.Waxman.graph);
  check "positions drawn" true (Array.length t.Waxman.positions = 60)

let pure_random_degree () =
  let p = Flat_models.probability_for_degree ~n:100 ~target_degree:6.0 in
  let total = ref 0.0 in
  for seed = 1 to 10 do
    let t = Flat_models.pure_random (Rng.create seed) ~n:100 ~p in
    total := !total +. Graph.average_degree t.Waxman.graph
  done;
  let mean = !total /. 10.0 in
  check "degree near target" true (abs_float (mean -. 6.0) < 1.0)

let pure_random_distance_independent () =
  (* Unlike Waxman, long edges are as common as short ones: compare the mean
     edge length with the mean pairwise distance. *)
  let t = Flat_models.pure_random (Rng.create 7) ~n:120 ~p:0.1 in
  let dist (x1, y1) (x2, y2) = sqrt (((x1 -. x2) ** 2.) +. ((y1 -. y2) ** 2.)) in
  let pos = t.Waxman.positions in
  let edge_lengths = ref [] in
  Graph.iter_edges
    (fun e -> edge_lengths := dist pos.(e.Graph.u) pos.(e.Graph.v) :: !edge_lengths)
    t.Waxman.graph;
  check "edges are long on average (> 0.4)" true (Stats.mean !edge_lengths > 0.4)

let locality_prefers_near () =
  let t =
    Flat_models.locality (Rng.create 9) ~n:120 ~radius:0.25 ~p_near:0.5 ~p_far:0.01
  in
  let dist (x1, y1) (x2, y2) = sqrt (((x1 -. x2) ** 2.) +. ((y1 -. y2) ** 2.)) in
  let pos = t.Waxman.positions in
  let near = ref 0 and far = ref 0 in
  Graph.iter_edges
    (fun e ->
      if dist pos.(e.Graph.u) pos.(e.Graph.v) < 0.25 then incr near else incr far)
    t.Waxman.graph;
  (* Repair edges can be long; the raw draw is dominated by near edges. *)
  check "mostly near edges" true (!near > 2 * !far)

let models_reject_bad_params () =
  Alcotest.check_raises "bad p" (Invalid_argument "Flat_models.pure_random: p out of [0, 1]")
    (fun () -> ignore (Flat_models.pure_random (Rng.create 1) ~n:10 ~p:1.5));
  Alcotest.check_raises "bad radius"
    (Invalid_argument "Flat_models.locality: radius must be positive") (fun () ->
      ignore (Flat_models.locality (Rng.create 1) ~n:10 ~radius:0.0 ~p_near:0.5 ~p_far:0.1))

let family_experiment_shapes () =
  let rows = Families.run ~seed:5 ~scenarios:6 () in
  check_int "four families" 4 (List.length rows);
  let flat = List.filter (fun r -> r.Families.family <> "transit-stub") rows in
  List.iter
    (fun r ->
      check (r.Families.family ^ " advantage persists") true (r.Families.rd.Stats.mean > 0.05))
    flat;
  check "renders" true (String.length (Families.render rows) > 100)

let qcheck_models_connected =
  QCheck.Test.make ~name:"flat models always produce connected graphs" ~count:40
    QCheck.small_int (fun seed ->
      let rng = Rng.create seed in
      let n = 10 + Rng.int rng 60 in
      let a = Flat_models.pure_random rng ~n ~p:0.05 in
      let b = Flat_models.locality rng ~n ~radius:0.3 ~p_near:0.2 ~p_far:0.02 in
      connected a.Waxman.graph
      && connected b.Waxman.graph)

let () =
  Alcotest.run "families"
    [
      ( "models",
        [
          Alcotest.test_case "pure random basics" `Quick pure_random_basic;
          Alcotest.test_case "pure random degree" `Quick pure_random_degree;
          Alcotest.test_case "distance independence" `Quick pure_random_distance_independent;
          Alcotest.test_case "locality prefers near" `Quick locality_prefers_near;
          Alcotest.test_case "rejects bad params" `Quick models_reject_bad_params;
        ] );
      ( "experiment",
        [ Alcotest.test_case "cross-family shapes" `Quick family_experiment_shapes ] );
      ("properties", [ qcheck_case qcheck_models_connected ]);
    ]
