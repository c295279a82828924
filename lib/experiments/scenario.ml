module Rng = Smrp_rng.Rng
module Graph = Smrp_graph.Graph
module Dijkstra = Smrp_graph.Dijkstra
module Waxman = Smrp_topology.Waxman
module Tree = Smrp_core.Tree
module Spf = Smrp_core.Spf
module Smrp = Smrp_core.Smrp
module Failure = Smrp_core.Failure
module Recovery = Smrp_core.Recovery
module Stats = Smrp_metrics.Stats
module Metrics = Smrp_obs.Metrics

type config = {
  n : int;
  group_size : int;
  alpha : float;
  beta : float;
  d_thresh : float;
  link_delay : Waxman.link_delay;
  seed : int;
}

let default =
  {
    n = 100;
    group_size = 30;
    alpha = 0.2;
    beta = 0.2;
    d_thresh = 0.3;
    (* Hop-count link metric, as GT-ITM scenario files commonly weight
       links.  Under geometric (Euclidean) delays the Fig. 9 trend inverts —
       see EXPERIMENTS.md. *)
    link_delay = `Unit;
    seed = 1;
  }

type member_outcome = {
  member : int;
  rd_local_spf : float option;
  rd_local_smrp : float option;
  rd_global_spf : float option;
  rd_global_smrp : float option;
  delay_spf : float;
  delay_smrp : float;
}

type t = {
  config : config;
  graph : Graph.t;
  source : int;
  members : int list;
  spf_tree : Tree.t;
  smrp_tree : Tree.t;
  average_degree : float;
  cost_spf : float;
  cost_smrp : float;
  outcomes : member_outcome list;
}

(* Worst-case failure for a member in a given tree (§4.3.1), then the
   recovery distance under the given strategy.  [surviving_after f] is the
   tree's surviving set under [f], and [spf_after f] the source SPF over
   the network [f] leaves, which bounds a global detour. *)
let worst_case_distance ?ws ~surviving_after ~spf_after tree member strategy =
  match Failure.worst_case_for_member tree member with
  | None -> None
  | Some f -> begin
      let surviving = surviving_after f in
      let detour =
        match strategy with
        | `Local -> Recovery.local_detour ?ws ~surviving tree f ~member
        | `Global -> Recovery.global_detour ?ws ~surviving tree f ~member ~spf:(spf_after f)
      in
      Option.map (fun d -> d.Recovery.recovery_distance) detour
    end

let recovery_distance ?ws tree member strategy =
  let spf_after f = Smrp.source_spf ~filters:(Failure.filters (Tree.graph tree) f) ?ws tree in
  worst_case_distance ?ws ~surviving_after:(Failure.tree_connected tree) ~spf_after tree member
    strategy

(* One Dijkstra workspace serves every search of the scenario: both tree
   builds and all four recovery measurements per member. *)
let evaluate_on ws graph ~source ~members ~d_thresh =
  let spf_tree = Spf.build ~ws graph ~source ~members in
  let smrp_tree = Smrp.build ~d_thresh ~ws graph ~source ~members in
  (* Every worst case is one link of the graph, and the SPF over what it
     leaves depends on nothing else: one search per distinct link serves
     both trees and every member behind that link.  So does one walk of
     each tree for its surviving set. *)
  let per_link make =
    let known = Hashtbl.create 8 in
    fun f ->
      match Hashtbl.find_opt known f with
      | Some v -> v
      | None ->
          let v = make f in
          Hashtbl.add known f v;
          v
  in
  let spf_after =
    per_link (fun f -> Smrp.source_spf ~filters:(Failure.filters graph f) ~ws spf_tree)
  in
  let on_spf = per_link (Failure.tree_connected spf_tree)
  and on_smrp = per_link (Failure.tree_connected smrp_tree) in
  let distance tree surviving_after m strategy =
    worst_case_distance ~ws ~surviving_after ~spf_after tree m strategy
  in
  let outcome m =
    {
      member = m;
      rd_local_spf = distance spf_tree on_spf m `Local;
      rd_local_smrp = distance smrp_tree on_smrp m `Local;
      rd_global_spf = distance spf_tree on_spf m `Global;
      rd_global_smrp = distance smrp_tree on_smrp m `Global;
      delay_spf = Tree.delay_to_source spf_tree m;
      delay_smrp = Tree.delay_to_source smrp_tree m;
    }
  in
  (spf_tree, smrp_tree, List.map outcome members)

let evaluate graph =
  evaluate_on (Dijkstra.workspace ~capacity:(Graph.node_count graph) ()) graph

let draw config ~topo_rng ~member_rng =
  let topo =
    Waxman.generate ~link_delay:config.link_delay topo_rng ~n:config.n ~alpha:config.alpha
      ~beta:config.beta
  in
  (* Source and group drawn together, then the source chosen uniformly
     among them (avoids biasing the source towards low node ids). *)
  let k = config.group_size in
  let chosen = Array.of_list (Rng.sample_without_replacement member_rng (k + 1) config.n) in
  Rng.shuffle member_rng chosen;
  (topo.Waxman.graph, chosen.(0), Array.to_list (Array.sub chosen 1 k))

let instance config =
  let rng = Rng.create config.seed in
  let topo_rng = Rng.split rng in
  let member_rng = Rng.split rng in
  draw config ~topo_rng ~member_rng

let next_seed rng = Int64.to_int (Rng.bits64 rng) land 0x3FFFFFFF

let seeds ~seed ~count =
  let rng = Rng.create seed in
  List.init count (fun _ -> next_seed rng)

(* Per-scenario instrumentation, run on the orchestrating domain (the
   registry's owner) after the fan-out joins: instruments resolve by name
   once per scenario, not per member.  All counted quantities are integers,
   and the recovery-distance sketch sums hop counts, so under the default
   [`Unit] link metric even its float [sum] is exact. *)
let record m t =
  Metrics.Counter.incr (Metrics.counter m "scenario.runs");
  Metrics.Counter.add (Metrics.counter m "scenario.members") (List.length t.members);
  let recovered = Metrics.counter m "scenario.recovered"
  and isolated = Metrics.counter m "scenario.isolated" in
  (* Quantile sketches: recovery distances per strategy/tree and per-member
     tree delays. *)
  let rd_smrp_q = Metrics.sketch m "scenario.rd_local_smrp.q"
  and rd_spf_q = Metrics.sketch m "scenario.rd_global_spf.q"
  and delay_smrp_q = Metrics.sketch m "scenario.delay_smrp.q"
  and delay_spf_q = Metrics.sketch m "scenario.delay_spf.q" in
  List.iter
    (fun o ->
      (match o.rd_local_smrp with
      | Some rd ->
          Metrics.Counter.incr recovered;
          Smrp_obs.Sketch.observe rd_smrp_q rd
      | None -> Metrics.Counter.incr isolated);
      Option.iter (Smrp_obs.Sketch.observe rd_spf_q) o.rd_global_spf;
      Smrp_obs.Sketch.observe delay_smrp_q o.delay_smrp;
      Smrp_obs.Sketch.observe delay_spf_q o.delay_spf)
    t.outcomes

let run config =
  if config.group_size + 1 > config.n then invalid_arg "Scenario.run: group larger than network";
  let graph, source, members = instance config in
  (* When run under [Pool.with_instrumentation ~flight], the scenario's
     Dijkstra workspace carries this domain's recorder so every search
     inside it (tree builds, candidate searches, recovery detours) lands in
     the same record stream as the pool spans.  Otherwise the workspace
     keeps the null recorder and the hot path stays a branch. *)
  let ws = Dijkstra.workspace ~capacity:(Graph.node_count graph) () in
  Option.iter
    (fun fl -> Dijkstra.set_flight ws (Smrp_obs.Flight.recorder fl))
    (Pool.ambient_flight ());
  let spf_tree, smrp_tree, outcomes =
    evaluate_on ws graph ~source ~members ~d_thresh:config.d_thresh
  in
  {
    config;
    graph;
    source;
    members;
    spf_tree;
    smrp_tree;
    average_degree = Graph.average_degree graph;
    cost_spf = Tree.total_cost spf_tree;
    cost_smrp = Tree.total_cost smrp_tree;
    outcomes;
  }

(* Deduplicate before the fan-out: sweeps routinely repeat a config (a
   collapsed axis), and [run] is deterministic in it, so each distinct config
   is evaluated once and shared.  Metrics are recorded per {e occurrence} on
   the orchestrating domain after the join — same totals as recording inside
   every worker, byte-identical whatever [jobs]. *)
let run_many ?jobs ?metrics configs =
  let seen = Hashtbl.create 16 in
  let unique =
    List.filter
      (fun c ->
        if Hashtbl.mem seen c then false
        else begin
          Hashtbl.replace seen c ();
          true
        end)
      configs
  in
  let results = Pool.map ?jobs run unique in
  let tbl = Hashtbl.create (List.length unique) in
  List.iter2 (Hashtbl.replace tbl) unique results;
  List.map
    (fun c ->
      let t = Hashtbl.find tbl c in
      Option.iter (fun m -> record m t) metrics;
      t)
    configs

type aggregates = {
  rd_relative : float;
  rd_relative_tree : float;
  delay_relative : float;
  cost_relative : float;
  local_vs_global : float;
}

let mean_reduction pairs =
  let rels =
    List.filter_map
      (fun (baseline, improved) ->
        match (baseline, improved) with
        | Some b, Some i when b > 0.0 -> Some (Stats.relative_reduction ~baseline:b ~improved:i)
        | _ -> None)
      pairs
  in
  match rels with [] -> 0.0 | _ -> Stats.mean rels

let aggregates t =
  let pick f g = List.map (fun o -> (f o, g o)) t.outcomes in
  let delay_rels =
    List.map
      (fun o -> Stats.relative_increase ~baseline:o.delay_spf ~changed:o.delay_smrp)
      t.outcomes
  in
  {
    rd_relative = mean_reduction (pick (fun o -> o.rd_global_spf) (fun o -> o.rd_local_smrp));
    rd_relative_tree = mean_reduction (pick (fun o -> o.rd_local_spf) (fun o -> o.rd_local_smrp));
    delay_relative = (match delay_rels with [] -> 0.0 | _ -> Stats.mean delay_rels);
    cost_relative = Stats.relative_increase ~baseline:t.cost_spf ~changed:t.cost_smrp;
    local_vs_global = mean_reduction (pick (fun o -> o.rd_global_smrp) (fun o -> o.rd_local_smrp));
  }
