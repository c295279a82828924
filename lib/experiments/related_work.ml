module Rng = Smrp_rng.Rng
module Graph = Smrp_graph.Graph
module Connectivity = Smrp_graph.Connectivity
module Waxman = Smrp_topology.Waxman
module Tree = Smrp_core.Tree
module Spf = Smrp_core.Spf
module Smrp = Smrp_core.Smrp
module Redundant = Smrp_core.Redundant
module Stats = Smrp_metrics.Stats
module Table = Smrp_metrics.Table

type feasibility_row = { alpha : float; average_degree : float; feasible_fraction : float }

type comparison = {
  scenarios : int;
  rd_smrp : Stats.summary;
  rd_redundant : float;
  delay_smrp : Stats.summary;
  delay_redundant : Stats.summary;
  post_failure_delay_redundant : Stats.summary;
  cost_smrp : Stats.summary;
  cost_redundant : Stats.summary;
}

let feasibility ?(seed = 16) ?(samples = 100) ?(alphas = [ 0.2; 0.3; 0.5; 0.8 ]) () =
  List.map
    (fun alpha ->
      let rng = Rng.create seed in
      let feasible = ref 0 in
      let degree = ref 0.0 in
      for _ = 1 to samples do
        let topo = Waxman.generate (Rng.split rng) ~n:100 ~alpha ~beta:0.2 in
        degree := !degree +. Graph.average_degree topo.Waxman.graph;
        if Connectivity.bridges topo.Waxman.graph = [] then incr feasible
      done;
      {
        alpha;
        average_degree = !degree /. float_of_int samples;
        feasible_fraction = float_of_int !feasible /. float_of_int samples;
      })
    alphas

let compare_schemes ?(seed = 16) ?(scenarios = 50) ?(alpha = 0.5) () =
  let rng = Rng.create seed in
  let rd = ref [] in
  let delay_smrp = ref [] in
  let delay_red = ref [] in
  let delay_red_post = ref [] in
  let cost_smrp = ref [] in
  let cost_red = ref [] in
  let collected = ref 0 in
  let attempts = ref 0 in
  while !collected < scenarios && !attempts < 20 * scenarios do
    incr attempts;
    let topo_rng = Rng.split rng in
    let member_rng = Rng.split rng in
    let g, source, members =
      Scenario.draw { Scenario.default with Scenario.alpha } ~topo_rng ~member_rng
    in
    match Redundant.build g ~source with
    | None -> ()
    | Some red ->
        incr collected;
        let spf = Spf.build g ~source ~members in
        let smrp = Smrp.build ~d_thresh:0.3 g ~source ~members in
        List.iter
          (fun m ->
            let spf_delay = Tree.delay_to_source spf m in
            delay_smrp :=
              Stats.relative_increase ~baseline:spf_delay ~changed:(Tree.delay_to_source smrp m)
              :: !delay_smrp;
            delay_red :=
              Stats.relative_increase ~baseline:spf_delay ~changed:(Redundant.delay red m)
              :: !delay_red;
            delay_red_post :=
              Stats.relative_increase ~baseline:spf_delay ~changed:(Redundant.worst_delay red m)
              :: !delay_red_post;
            Option.iter (fun d -> rd := d :: !rd) (Scenario.recovery_distance smrp m `Local))
          members;
        let spf_cost = Tree.total_cost spf in
        cost_smrp :=
          Stats.relative_increase ~baseline:spf_cost ~changed:(Tree.total_cost smrp) :: !cost_smrp;
        cost_red :=
          Stats.relative_increase ~baseline:spf_cost
            ~changed:(Redundant.provisioned_cost red ~receivers:members)
          :: !cost_red
  done;
  {
    scenarios = !collected;
    rd_smrp = Stats.summarize (if !rd = [] then [ 0.0 ] else !rd);
    rd_redundant = 0.0;
    delay_smrp = Stats.summarize (if !delay_smrp = [] then [ 0.0 ] else !delay_smrp);
    delay_redundant = Stats.summarize (if !delay_red = [] then [ 0.0 ] else !delay_red);
    post_failure_delay_redundant =
      Stats.summarize (if !delay_red_post = [] then [ 0.0 ] else !delay_red_post);
    cost_smrp = Stats.summarize (if !cost_smrp = [] then [ 0.0 ] else !cost_smrp);
    cost_redundant = Stats.summarize (if !cost_red = [] then [ 0.0 ] else !cost_red);
  }

let pct s = Printf.sprintf "%6.1f%% ± %.1f" (100.0 *. s.Stats.mean) (100.0 *. s.Stats.ci95)

let render rows cmp =
  let feas = Table.create ~columns:[ "alpha"; "avg degree"; "redundant trees feasible" ] in
  List.iter
    (fun r ->
      Table.add_row feas
        [
          Printf.sprintf "%.2f" r.alpha;
          Printf.sprintf "%.2f" r.average_degree;
          Printf.sprintf "%.0f%%" (100.0 *. r.feasible_fraction);
        ])
    rows;
  let t = Table.create ~columns:[ "scheme"; "recovery distance"; "delay vs SPF"; "capacity vs SPF" ] in
  Table.add_row t
    [
      "SMRP (reactive)";
      Printf.sprintf "%.2f ± %.2f hops" cmp.rd_smrp.Stats.mean cmp.rd_smrp.Stats.ci95;
      pct cmp.delay_smrp;
      pct cmp.cost_smrp;
    ];
  Table.add_row t
    [
      "Redundant trees [16]";
      "0 (switchover)";
      Printf.sprintf "%s (post-failure %s)" (pct cmp.delay_redundant)
        (pct cmp.post_failure_delay_redundant);
      pct cmp.cost_redundant;
    ];
  Printf.sprintf
    "Related work: SMRP vs preplanned redundant trees (Medard et al. [16])\n\n\
     Feasibility on Waxman topologies (N=100, 100 draws each):\n%s\n\n\
     Price of protection on feasible draws (alpha=0.5, %d scenarios, N_G=30):\n%s\n"
    (Table.render feas) cmp.scenarios (Table.render t)
