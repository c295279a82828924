module Rng = Smrp_rng.Rng
module Graph = Smrp_graph.Graph
module Connectivity = Smrp_graph.Connectivity
module Waxman = Smrp_topology.Waxman
module Transit_stub = Smrp_topology.Transit_stub
module Fixtures = Smrp_topology.Fixtures
module Flat_models = Smrp_topology.Flat_models
module Scale = Smrp_topology.Scale

(* Property tests run with a pinned PRNG state so failures are
   reproducible run over run. *)
let qcheck_case t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 424242 |]) t

let check = Alcotest.(check bool)

let connected g = Array.for_all Fun.id (Connectivity.reachable_from g 0)

(* Empirical average node degree over five draws. *)
let measured_degree rng ~n ~alpha ~beta =
  let total = ref 0.0 in
  for _ = 1 to 5 do
    total := !total +. Graph.average_degree (Waxman.generate rng ~n ~alpha ~beta).Waxman.graph
  done;
  !total /. 5.0

let transit_count t =
  Array.fold_left
    (fun n role -> match role with Transit_stub.Transit _ -> n + 1 | Transit_stub.Stub _ -> n)
    0 t.Transit_stub.roles
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

(* -- Waxman ------------------------------------------------------------ *)

let waxman_connected () =
  for seed = 1 to 10 do
    let t = Waxman.generate (Rng.create seed) ~n:60 ~alpha:0.15 ~beta:0.2 in
    check "connected" true (connected t.Waxman.graph)
  done

let waxman_deterministic () =
  let a = Waxman.generate (Rng.create 5) ~n:50 ~alpha:0.2 ~beta:0.2 in
  let b = Waxman.generate (Rng.create 5) ~n:50 ~alpha:0.2 ~beta:0.2 in
  check_int "same edge count" (Graph.edge_count a.Waxman.graph) (Graph.edge_count b.Waxman.graph);
  check "same positions" true (a.Waxman.positions = b.Waxman.positions)

let waxman_node_count () =
  let t = Waxman.generate (Rng.create 1) ~n:37 ~alpha:0.3 ~beta:0.3 in
  check_int "node count" 37 (Graph.node_count t.Waxman.graph);
  check_int "positions" 37 (Array.length t.Waxman.positions)

let waxman_alpha_monotone () =
  let degree alpha =
    measured_degree (Rng.create 7) ~n:80 ~alpha ~beta:0.2
  in
  check "denser with larger alpha" true (degree 0.1 < degree 0.4)

let waxman_min_delay () =
  let t = Waxman.generate (Rng.create 2) ~n:50 ~alpha:0.3 ~beta:0.3 in
  Graph.iter_edges
    (fun e -> check "delay floored" true (e.Graph.delay >= 0.01))
    t.Waxman.graph

let waxman_unit_delays () =
  let t = Waxman.generate ~link_delay:`Unit (Rng.create 3) ~n:40 ~alpha:0.2 ~beta:0.2 in
  Graph.iter_edges (fun e -> check_float "unit" 1.0 e.Graph.delay) t.Waxman.graph

let waxman_uniform_delays () =
  let t = Waxman.generate ~link_delay:(`Uniform (2.0, 9.0)) (Rng.create 3) ~n:40 ~alpha:0.2 ~beta:0.2 in
  Graph.iter_edges
    (fun e -> check "in range" true (e.Graph.delay >= 2.0 && e.Graph.delay <= 9.0))
    t.Waxman.graph

let waxman_rejects_bad_params () =
  Alcotest.check_raises "bad alpha" (Invalid_argument "Waxman.generate: alpha out of (0, 1]")
    (fun () -> ignore (Waxman.generate (Rng.create 1) ~n:10 ~alpha:1.5 ~beta:0.2))

(* Every parameter guard rejects NaN: a NaN probability or radius draws no
   edge at all, so without the guard the result is only the connectivity
   stitching, with no error.  A bad delay range is rejected before the
   draw, so also by a one-node draw that adds no link. *)
let nan_parameters_rejected () =
  let rejects name f =
    match f (Rng.create 1) with
    | _ -> Alcotest.failf "%s: accepted" name
    | exception Invalid_argument _ -> ()
  in
  let n = 30 in
  rejects "Waxman alpha" (fun r -> Waxman.generate r ~n ~alpha:nan ~beta:0.2);
  rejects "Waxman beta" (fun r -> Waxman.generate r ~n ~alpha:0.2 ~beta:nan);
  rejects "Waxman uniform lo" (fun r ->
      Waxman.generate ~link_delay:(`Uniform (nan, 2.0)) r ~n ~alpha:0.2 ~beta:0.2);
  rejects "Waxman uniform hi" (fun r ->
      Waxman.generate ~link_delay:(`Uniform (1.0, nan)) r ~n ~alpha:0.2 ~beta:0.2);
  rejects "Scale alpha" (fun r -> Scale.waxman r ~n ~alpha:nan ~beta:0.2);
  rejects "Scale beta" (fun r -> Scale.waxman r ~n ~alpha:0.2 ~beta:nan);
  rejects "Scale p_floor" (fun r -> Scale.waxman ~p_floor:nan r ~n ~alpha:0.2 ~beta:0.2);
  rejects "Scale uniform lo" (fun r ->
      Scale.waxman ~link_delay:(`Uniform (nan, 2.0)) r ~n ~alpha:0.2 ~beta:0.2);
  rejects "Scale target degree" (fun _ -> Scale.degree_params ~n ~target_degree:nan);
  rejects "pure_random p" (fun r -> Flat_models.pure_random r ~n ~p:nan);
  rejects "pure_random uniform hi" (fun r ->
      Flat_models.pure_random ~link_delay:(`Uniform (1.0, nan)) r ~n ~p:0.2);
  rejects "locality radius" (fun r ->
      Flat_models.locality r ~n ~radius:nan ~p_near:0.5 ~p_far:0.05);
  rejects "locality p_near" (fun r ->
      Flat_models.locality r ~n ~radius:0.2 ~p_near:nan ~p_far:0.05);
  rejects "locality p_far" (fun r ->
      Flat_models.locality r ~n ~radius:0.2 ~p_near:0.5 ~p_far:nan);
  let n = 1 in
  rejects "Waxman uniform lo, no link" (fun r ->
      Waxman.generate ~link_delay:(`Uniform (nan, 2.0)) r ~n ~alpha:0.2 ~beta:0.2);
  rejects "Waxman uniform lo > hi, no link" (fun r ->
      Waxman.generate ~link_delay:(`Uniform (3.0, 2.0)) r ~n ~alpha:0.2 ~beta:0.2);
  rejects "Waxman uniform hi infinite, no link" (fun r ->
      Waxman.generate ~link_delay:(`Uniform (1.0, infinity)) r ~n ~alpha:0.2 ~beta:0.2);
  rejects "pure_random uniform lo negative, no link" (fun r ->
      Flat_models.pure_random ~link_delay:(`Uniform (-1.0, 2.0)) r ~n ~p:0.2);
  rejects "Scale uniform lo, no link" (fun r ->
      Scale.waxman ~link_delay:(`Uniform (nan, 2.0)) r ~n ~alpha:0.2 ~beta:0.2)

let waxman_calibration () =
  let alpha =
    Waxman.calibrate_alpha (Rng.create 11) ~n:100 ~beta:0.2 ~target_degree:6.0
  in
  let measured =
    measured_degree (Rng.create 13) ~n:100 ~alpha ~beta:0.2
  in
  check "calibrated within 25%" true (abs_float (measured -. 6.0) < 1.5)

(* -- Transit-stub ------------------------------------------------------ *)

let ts_structure () =
  let t = Transit_stub.generate (Rng.create 4) Transit_stub.default_params in
  let p = Transit_stub.default_params in
  let transit_total = p.Transit_stub.transit_domains * p.Transit_stub.transit_nodes_per_domain in
  let stubs = transit_total * p.Transit_stub.stubs_per_transit_node in
  check_int "stub count" stubs t.Transit_stub.stub_count;
  check_int "node count" (transit_total + (stubs * p.Transit_stub.stub_nodes))
    (Graph.node_count t.Transit_stub.graph);
  check_int "transit nodes" transit_total (transit_count t);
  check "connected" true (connected t.Transit_stub.graph)

let ts_gateways_and_agents () =
  let t = Transit_stub.generate (Rng.create 5) Transit_stub.default_params in
  for d = 0 to t.Transit_stub.stub_count - 1 do
    let gw = t.Transit_stub.stub_gateway.(d) in
    let attach = t.Transit_stub.stub_attach.(d) in
    (match t.Transit_stub.roles.(gw) with
    | Transit_stub.Transit _ -> ()
    | Transit_stub.Stub _ -> Alcotest.fail "gateway must be transit");
    (match t.Transit_stub.roles.(attach) with
    | Transit_stub.Stub d' -> check_int "attach in own stub" d d'
    | Transit_stub.Transit _ -> Alcotest.fail "attach must be stub");
    check "access link exists" true (Graph.mem_edge t.Transit_stub.graph gw attach)
  done

let ts_stub_partition () =
  let t = Transit_stub.generate (Rng.create 6) Transit_stub.default_params in
  let total =
    List.init t.Transit_stub.stub_count (fun d -> List.length (Transit_stub.nodes_of_stub t d))
    |> List.fold_left ( + ) 0
  in
  check_int "stubs partition the non-transit nodes"
    (Graph.node_count t.Transit_stub.graph - transit_count t)
    total

let ts_inter_domain_links () =
  let p = { Transit_stub.default_params with Transit_stub.transit_domains = 3 } in
  let t = Transit_stub.generate (Rng.create 8) p in
  check_int "one link per consecutive pair" 2 (Array.length t.Transit_stub.inter_domain_links);
  Array.iteri
    (fun i (eid, a, b) ->
      let e = Graph.edge t.Transit_stub.graph eid in
      check "edge endpoints match" true
        ((e.Graph.u = a && e.Graph.v = b) || (e.Graph.u = b && e.Graph.v = a));
      (match (t.Transit_stub.roles.(a), t.Transit_stub.roles.(b)) with
      | Transit_stub.Transit da, Transit_stub.Transit db ->
          check_int "left endpoint domain" i da;
          check_int "right endpoint domain" (i + 1) db
      | _ -> Alcotest.fail "inter-domain endpoints must be transit"))
    t.Transit_stub.inter_domain_links

let ts_rejects_bad_params () =
  Alcotest.check_raises "bad params" (Invalid_argument "Transit_stub.generate: bad parameters")
    (fun () ->
      ignore
        (Transit_stub.generate (Rng.create 1)
           { Transit_stub.default_params with Transit_stub.transit_domains = 0 }))

(* -- Fixtures ---------------------------------------------------------- *)

let fig1_shape () =
  let f = Fixtures.fig1 () in
  check_int "nodes" 5 (Graph.node_count f.Fixtures.graph);
  check_int "edges" 6 (Graph.edge_count f.Fixtures.graph)

let fig4_shape () =
  let f = Fixtures.fig4 () in
  check_int "nodes" 8 (Graph.node_count f.Fixtures.graph);
  check_int "edges" 10 (Graph.edge_count f.Fixtures.graph);
  check "connected" true (connected f.Fixtures.graph)

let deterministic_shapes () =
  check_int "diamond edges" 4 (Graph.edge_count (Fixtures.diamond ()));
  check_int "line edges" 6 (Graph.edge_count (Fixtures.line 7));
  check_int "ring edges" 7 (Graph.edge_count (Fixtures.ring 7));
  check_int "grid edges" 24 (Graph.edge_count (Fixtures.grid 4));
  Alcotest.check_raises "tiny ring" (Invalid_argument "Fixtures.ring") (fun () ->
      ignore (Fixtures.ring 2))

let qcheck_waxman_connected =
  QCheck.Test.make ~name:"waxman graphs are always connected" ~count:40
    QCheck.(pair small_int (int_range 5 80))
    (fun (seed, n) ->
      let t = Waxman.generate (Rng.create seed) ~n ~alpha:0.1 ~beta:0.15 in
      connected t.Waxman.graph)

(* Drawn shapes cover the ones [smrp scale] sends through the generator:
   8-node stubs and at least 4 routers per domain, where the chord draws. *)
let qcheck_ts_connected =
  QCheck.Test.make ~name:"transit-stub graphs are always connected" ~count:25 QCheck.small_int
    (fun seed ->
      let rng = Rng.create seed in
      let p =
        {
          Transit_stub.default_params with
          Transit_stub.transit_domains = 1 + Rng.int rng 4;
          transit_nodes_per_domain = 1 + Rng.int rng 12;
          stubs_per_transit_node = Rng.int rng 4;
          stub_nodes = 1 + Rng.int rng 10;
        }
      in
      let t = Transit_stub.generate rng p in
      connected t.Transit_stub.graph)

(* -- Draw-first generators against the original pair loop ----------------- *)

(* The dense generators as they were before drawing first: for every pair,
   the probability (Waxman: from the distance) is computed first, and a
   zero-probability pair draws nothing.  Positions, pair order, delays and
   the connectivity stitching are copied verbatim, so any difference in
   edges or in the draws consumed is the draw-first loop's. *)
module Pair_loop = struct
  let distance (x1, y1) (x2, y2) = sqrt (((x1 -. x2) ** 2.0) +. ((y1 -. y2) ** 2.0))

  let make_delay link_delay rng positions u v =
    match link_delay with
    | `Euclidean -> Float.max 0.01 (distance positions.(u) positions.(v))
    | `Unit -> 1.0
    | `Uniform (lo, hi) -> lo +. Rng.float rng (hi -. lo)

  (* Component labels from one reachability sweep per component,
     independent of the union-find the draw stitches with. *)
  let components g =
    let n = Graph.node_count g in
    let comp = Array.make n (-1) and count = ref 0 in
    for s = 0 to n - 1 do
      if comp.(s) < 0 then begin
        Array.iteri (fun v r -> if r then comp.(v) <- !count) (Connectivity.reachable_from g s);
        incr count
      end
    done;
    (comp, !count)

  let repair link_delay rng g positions =
    let rec step () =
      let comp, count = components g in
      if count > 1 then begin
        let n = Graph.node_count g in
        let best = ref None in
        for u = 0 to n - 1 do
          for v = u + 1 to n - 1 do
            if comp.(u) <> comp.(v) then begin
              let d = distance positions.(u) positions.(v) in
              match !best with Some (bd, _, _) when bd <= d -> () | _ -> best := Some (d, u, v)
            end
          done
        done;
        match !best with
        | None -> ()
        | Some (_, u, v) ->
            ignore (Graph.add_edge g u v (make_delay link_delay rng positions u v));
            step ()
      end
    in
    step ()

  let positions rng ~n =
    Array.init n (fun _ ->
        let x = Rng.float rng 1.0 in
        let y = Rng.float rng 1.0 in
        (x, y))

  let generate link_delay rng ~n ~edge_probability =
    let positions = positions rng ~n in
    let g = Graph.create n in
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        let p = edge_probability positions u v in
        if p > 0.0 && Rng.float rng 1.0 < p then
          ignore (Graph.add_edge g u v (make_delay link_delay rng positions u v))
      done
    done;
    repair link_delay rng g positions;
    g

  let waxman link_delay rng ~n ~alpha ~beta =
    let l = sqrt 2.0 in
    generate link_delay rng ~n ~edge_probability:(fun positions u v ->
        alpha *. exp (-.distance positions.(u) positions.(v) /. (beta *. l)))

  let locality link_delay rng ~n ~radius ~p_near ~p_far =
    generate link_delay rng ~n ~edge_probability:(fun positions u v ->
        if distance positions.(u) positions.(v) < radius then p_near else p_far)

  let pure_random link_delay rng ~n ~p = generate link_delay rng ~n ~edge_probability:(fun _ _ _ -> p)
end

let edge_list g =
  List.rev (Graph.fold_edges (fun acc e -> (e.Graph.id, e.Graph.u, e.Graph.v, e.Graph.delay) :: acc) [] g)

(* A probability in [0, 1] with both ends, 0 (the no-draw path) and 1,
   drawn often. *)
let probability rng = match Rng.int rng 6 with 0 -> 0.0 | 1 -> 1.0 | _ -> Rng.float rng 1.0

let qcheck_draw_first_generators =
  QCheck.Test.make ~name:"draw-first generators equal the original pair loop, draw for draw"
    ~count:300 QCheck.small_int (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + Rng.int rng 60 in
      let link_delay =
        match Rng.int rng 3 with
        | 0 -> `Unit
        | 1 -> `Euclidean
        | _ ->
            let lo = 0.01 +. Rng.float rng 1.0 in
            `Uniform (lo, lo +. Rng.float rng 1.0)
      in
      let model_seed = Rng.int rng 1_000_000 in
      (* Both sides start from the same stream; after generating, the next
         draw on each must agree too. *)
      let same generate reference =
        let a = Rng.create model_seed and b = Rng.create model_seed in
        let got = generate a and expect = reference b in
        edge_list got = edge_list expect && Rng.bits64 a = Rng.bits64 b
      in
      let alpha = if Rng.int rng 4 = 0 then 1.0 else 0.01 +. Rng.float rng 0.99 in
      let beta = 0.05 +. Rng.float rng 0.95 in
      let radius = 0.05 +. Rng.float rng 1.5 in
      let p_near = probability rng and p_far = probability rng and p = probability rng in
      same
        (fun r -> (Waxman.generate ~link_delay r ~n ~alpha ~beta).Waxman.graph)
        (fun r -> Pair_loop.waxman link_delay r ~n ~alpha ~beta)
      && same
           (fun r -> (Flat_models.locality ~link_delay r ~n ~radius ~p_near ~p_far).Waxman.graph)
           (fun r -> Pair_loop.locality link_delay r ~n ~radius ~p_near ~p_far)
      && same
           (fun r -> (Flat_models.pure_random ~link_delay r ~n ~p).Waxman.graph)
           (fun r -> Pair_loop.pure_random link_delay r ~n ~p))

(* The dense draw rejects a pair from a distance computed with plain
   products, a few ulps from the [**] distance that decides the edge.  Two
   locality radii sit exactly on a pair's distance, where those ulps
   decide the side:
   - the radius at a pair's plain-product distance, which exceeds its [**]
     distance, with p_near = 1: the pair is near, so it is an edge, though
     a reject at the plain-product distance without slack reads it far;
   - the radius at a pair's [**] distance with p_near < p_far: the pair is
     far, so an edge with p_far = 1, though the plain-product distance may
     read it near; such a model has no bound, since its probability grows
     with the distance. *)
let locality_radius_on_a_pair () =
  let n = 60 in
  let rec witness seed =
    if seed > 1000 then Alcotest.fail "no pair whose plain-product distance exceeds its ** distance"
    else begin
      let pos = Pair_loop.positions (Rng.create seed) ~n in
      let found = ref None in
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          let x1, y1 = pos.(u) and x2, y2 = pos.(v) in
          let dx = x1 -. x2 and dy = y1 -. y2 in
          let df = sqrt ((dx *. dx) +. (dy *. dy)) in
          if !found = None && df > Pair_loop.distance pos.(u) pos.(v) then found := Some (u, v, df)
        done
      done;
      match !found with Some w -> (seed, pos, w) | None -> witness (seed + 1)
    end
  in
  let seed, pos, (u, v, df) = witness 1 in
  let same ~radius ~p_near ~p_far =
    let got = Flat_models.locality (Rng.create seed) ~n ~radius ~p_near ~p_far in
    let expect = Pair_loop.locality `Euclidean (Rng.create seed) ~n ~radius ~p_near ~p_far in
    check "same edges as the pair loop" true (edge_list got.Waxman.graph = edge_list expect);
    expect
  in
  check "near at the plain-product distance" true
    (Graph.mem_edge (same ~radius:df ~p_near:1.0 ~p_far:1e-9) u v);
  check "far at the ** distance" true
    (Graph.mem_edge (same ~radius:(Pair_loop.distance pos.(u) pos.(v)) ~p_near:1e-9 ~p_far:1.0) u v)

let () =
  Alcotest.run "topology"
    [
      ( "waxman",
        [
          Alcotest.test_case "connected" `Quick waxman_connected;
          Alcotest.test_case "deterministic" `Quick waxman_deterministic;
          Alcotest.test_case "node count" `Quick waxman_node_count;
          Alcotest.test_case "alpha raises density" `Quick waxman_alpha_monotone;
          Alcotest.test_case "min delay floor" `Quick waxman_min_delay;
          Alcotest.test_case "unit delays" `Quick waxman_unit_delays;
          Alcotest.test_case "uniform delays" `Quick waxman_uniform_delays;
          Alcotest.test_case "rejects bad params" `Quick waxman_rejects_bad_params;
          Alcotest.test_case "degree calibration" `Slow waxman_calibration;
        ] );
      ( "transit_stub",
        [
          Alcotest.test_case "structure" `Quick ts_structure;
          Alcotest.test_case "gateways and agents" `Quick ts_gateways_and_agents;
          Alcotest.test_case "stub partition" `Quick ts_stub_partition;
          Alcotest.test_case "inter-domain links" `Quick ts_inter_domain_links;
          Alcotest.test_case "rejects bad params" `Quick ts_rejects_bad_params;
        ] );
      ("guards", [ Alcotest.test_case "NaN parameters rejected" `Quick nan_parameters_rejected ]);
      ( "flat models",
        [ Alcotest.test_case "locality radius on a pair's distance" `Quick locality_radius_on_a_pair ] );
      ( "fixtures",
        [
          Alcotest.test_case "fig1 shape" `Quick fig1_shape;
          Alcotest.test_case "fig4 shape" `Quick fig4_shape;
          Alcotest.test_case "deterministic shapes" `Quick deterministic_shapes;
        ] );
      ( "properties",
        [
          qcheck_case qcheck_waxman_connected;
          qcheck_case qcheck_ts_connected;
          qcheck_case qcheck_draw_first_generators;
        ] );
    ]
