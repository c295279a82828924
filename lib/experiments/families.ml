module Rng = Smrp_rng.Rng
module Graph = Smrp_graph.Graph
module Waxman = Smrp_topology.Waxman
module Flat_models = Smrp_topology.Flat_models
module Transit_stub = Smrp_topology.Transit_stub
module Tree = Smrp_core.Tree
module Stats = Smrp_metrics.Stats
module Table = Smrp_metrics.Table

type row = {
  family : string;
  average_degree : float;
  rd : Stats.summary;
  delay : Stats.summary;
  cost : Stats.summary;
}

(* One generated topology plus a member pool to draw the group from. *)
type draw = { graph : Graph.t; pool : int list }

let waxman_draw rng =
  let topo = Waxman.generate ~link_delay:`Unit rng ~n:100 ~alpha:0.2 ~beta:0.2 in
  { graph = topo.Waxman.graph; pool = List.init 100 Fun.id }

let pure_random_draw target_degree rng =
  let p = Flat_models.probability_for_degree ~n:100 ~target_degree in
  let topo = Flat_models.pure_random ~link_delay:`Unit rng ~n:100 ~p in
  { graph = topo.Flat_models.graph; pool = List.init 100 Fun.id }

(* Locality parameters chosen so the expected degree matches the target:
   with radius 0.25 roughly 17% of pairs are "near"; p_near : p_far = 6 : 1
   mimics Zegura's locality skew. *)
let locality_draw target_degree rng =
  let near_fraction = 0.17 in
  let ratio = 6.0 in
  let base =
    target_degree /. (99.0 *. ((near_fraction *. ratio) +. (1.0 -. near_fraction)))
  in
  let topo =
    Flat_models.locality ~link_delay:`Unit rng ~n:100 ~radius:0.25
      ~p_near:(Float.min 1.0 (ratio *. base))
      ~p_far:base
  in
  { graph = topo.Flat_models.graph; pool = List.init 100 Fun.id }

let transit_stub_draw rng =
  let topo = Transit_stub.generate rng Transit_stub.default_params in
  let pool =
    List.concat
      (List.init topo.Transit_stub.stub_count (Transit_stub.nodes_of_stub topo))
  in
  { graph = topo.Transit_stub.graph; pool }

let measure_one ~generate (topo_rng, member_rng) =
  let { graph; pool } = generate topo_rng in
  let degree = Graph.average_degree graph in
  let pool = Array.of_list pool in
  Rng.shuffle member_rng pool;
  let source = pool.(0) in
  let members = Array.to_list (Array.sub pool 1 (min 30 (Array.length pool - 1))) in
  let spf_tree, smrp_tree, outcomes = Scenario.evaluate graph ~source ~members ~d_thresh:0.3 in
  let rels =
    List.filter_map
      (fun o ->
        match (o.Scenario.rd_global_spf, o.Scenario.rd_local_smrp) with
        | Some b, Some i when b > 0.0 -> Some (Stats.relative_reduction ~baseline:b ~improved:i)
        | _ -> None)
      outcomes
  in
  let rd = match rels with [] -> None | _ -> Some (Stats.mean rels) in
  let delay =
    Stats.mean
      (List.map
         (fun o -> Stats.relative_increase ~baseline:o.Scenario.delay_spf ~changed:o.Scenario.delay_smrp)
         outcomes)
  in
  let cost =
    Stats.relative_increase ~baseline:(Tree.total_cost spf_tree)
      ~changed:(Tree.total_cost smrp_tree)
  in
  (degree, rd, delay, cost)

let measure_family ?jobs ~seed ~scenarios ~generate name =
  (* The per-scenario RNG pairs are split off sequentially so the stream
     consumed is identical to the historical sequential loop; only the
     (pure) per-scenario measurement fans out. *)
  let rng = Rng.create seed in
  let draws =
    List.init scenarios (fun _ ->
        let topo_rng = Rng.split rng in
        let member_rng = Rng.split rng in
        (topo_rng, member_rng))
  in
  let results = Pool.map ?jobs (measure_one ~generate) draws in
  (* Prepend in scenario order, exactly as the old accumulator loop did, so
     the float-summation order (and thus every mean) is unchanged. *)
  let rd = ref [] and delay = ref [] and cost = ref [] and degree = ref [] in
  List.iter
    (fun (dg, rd_opt, dl, c) ->
      degree := dg :: !degree;
      (match rd_opt with Some v -> rd := v :: !rd | None -> ());
      delay := dl :: !delay;
      cost := c :: !cost)
    results;
  {
    family = name;
    average_degree = Stats.mean !degree;
    rd = Stats.summarize (if !rd = [] then [ 0.0 ] else !rd);
    delay = Stats.summarize !delay;
    cost = Stats.summarize !cost;
  }

let run ?jobs ?(seed = 31) ?(scenarios = 50) ?(target_degree = 4.5) () =
  [
    measure_family ?jobs ~seed ~scenarios ~generate:waxman_draw "waxman";
    measure_family ?jobs ~seed ~scenarios ~generate:(pure_random_draw target_degree) "pure-random";
    measure_family ?jobs ~seed ~scenarios ~generate:(locality_draw target_degree) "locality";
    measure_family ?jobs ~seed ~scenarios ~generate:transit_stub_draw "transit-stub";
  ]

let render rows =
  let t =
    Table.create
      ~columns:[ "family"; "avg degree"; "RD reduction"; "delay penalty"; "cost penalty" ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.family;
          Printf.sprintf "%.2f" r.average_degree;
          Stats.pct r.rd;
          Stats.pct r.delay;
          Stats.pct r.cost;
        ])
    rows;
  Printf.sprintf
    "Topology families (Zegura et al. [7]; N=100, N_G<=30, D_thresh=0.3, matched density)\n%s\n\
     (SMRP's advantage should persist across generators)\n"
    (Table.render t)
