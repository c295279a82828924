module Rng = Smrp_rng.Rng
module Graph = Smrp_graph.Graph
module Subgraph = Smrp_graph.Subgraph
module Transit_stub = Smrp_topology.Transit_stub
module Tree = Smrp_core.Tree
module Spf = Smrp_core.Spf
module Smrp = Smrp_core.Smrp
module Query_join = Smrp_core.Query
module Reshape = Smrp_core.Reshape
module Failure = Smrp_core.Failure
module Recovery = Smrp_core.Recovery
module Hierarchy = Smrp_core.Hierarchy
module Stats = Smrp_metrics.Stats
module Table = Smrp_metrics.Table

(* Mean over members of the worst-case local-detour RD reduction of [tree]
   vs the SPF baseline, and the mean relative delay increase. *)
let tree_vs_spf ~spf_tree ~tree ~members =
  let rd t m = Scenario.recovery_distance t m `Local in
  let delay_rels =
    List.map
      (fun m ->
        Stats.relative_increase
          ~baseline:(Tree.delay_to_source spf_tree m)
          ~changed:(Tree.delay_to_source tree m))
      members
  in
  ( Scenario.mean_reduction (List.map (fun m -> (rd spf_tree m, rd tree m)) members),
    match delay_rels with [] -> 0.0 | _ -> Stats.mean delay_rels )

(* The §4 instance of [seed] on Waxman's default Euclidean delays, which
   these ablations have always used. *)
let instance ~seed ~group_size =
  Scenario.instance { Scenario.default with Scenario.seed; group_size; link_delay = `Euclidean }

module Reshaping = struct
  type row = {
    scenarios : int;
    switches_per_scenario : float;
    rd_before : Stats.summary;
    rd_after : Stats.summary;
    delay_before : Stats.summary;
    delay_after : Stats.summary;
  }

  let d_thresh = 0.3

  let run_one seed =
    (* One draw of 45: the first 30 start the session, the other 15 join
       late. *)
    let graph, source, group = instance ~seed ~group_size:45 in
    let initial = List.filteri (fun i _ -> i < 30) group
    and latecomers = List.filteri (fun i _ -> i >= 30) group in
    let smrp = Smrp.build ~d_thresh graph ~source ~members:initial in
    (* Churn: every other initial member leaves, the latecomers join — the
       §3.2.3 situation where the tree grows skewed. *)
    List.iteri (fun i m -> if i mod 2 = 0 then Smrp.leave smrp m) initial;
    List.iter (Smrp.join ~d_thresh smrp) latecomers;
    let members = Tree.members smrp in
    let spf_tree = Spf.build graph ~source ~members in
    let rd_before, delay_before = tree_vs_spf ~spf_tree ~tree:smrp ~members in
    let stats = Reshape.stabilize ~d_thresh smrp in
    let rd_after, delay_after = tree_vs_spf ~spf_tree ~tree:smrp ~members in
    (float_of_int stats.Reshape.switches, rd_before, rd_after, delay_before, delay_after)

  let run ?jobs ?(seed = 11) ?(scenarios = 50) () =
    let results = Pool.map ?jobs run_one (Scenario.seeds ~seed ~count:scenarios) in
    let pick f = List.map f results in
    {
      scenarios;
      switches_per_scenario = Stats.mean (pick (fun (s, _, _, _, _) -> s));
      rd_before = Stats.summarize (pick (fun (_, b, _, _, _) -> b));
      rd_after = Stats.summarize (pick (fun (_, _, a, _, _) -> a));
      delay_before = Stats.summarize (pick (fun (_, _, _, d, _) -> d));
      delay_after = Stats.summarize (pick (fun (_, _, _, _, d) -> d));
    }

  let render r =
    let t = Table.create ~columns:[ "tree"; "RD reduction vs SPF"; "delay penalty" ] in
    Table.add_row t [ "after churn (skewed)"; Stats.pct r.rd_before; Stats.pct r.delay_before ];
    Table.add_row t [ "after reshaping"; Stats.pct r.rd_after; Stats.pct r.delay_after ];
    Printf.sprintf
      "Ablation: tree reshaping under churn (§3.2.3; %d scenarios, %.1f switches each)\n%s\n"
      r.scenarios r.switches_per_scenario (Table.render t)
end

module Query = struct
  type row = {
    scenarios : int;
    rd_full : Stats.summary;
    rd_query : Stats.summary;
    delay_full : Stats.summary;
    delay_query : Stats.summary;
  }

  let d_thresh = 0.3

  let run_one seed =
    let graph, source, members = instance ~seed ~group_size:30 in
    let spf_tree = Spf.build graph ~source ~members in
    let full = Smrp.build ~d_thresh graph ~source ~members in
    let query = Query_join.build ~d_thresh graph ~source ~members in
    let rd_full, delay_full = tree_vs_spf ~spf_tree ~tree:full ~members in
    let rd_query, delay_query = tree_vs_spf ~spf_tree ~tree:query ~members in
    (rd_full, rd_query, delay_full, delay_query)

  let run ?jobs ?(seed = 12) ?(scenarios = 50) () =
    let results = Pool.map ?jobs run_one (Scenario.seeds ~seed ~count:scenarios) in
    let pick f = List.map f results in
    {
      scenarios;
      rd_full = Stats.summarize (pick (fun (a, _, _, _) -> a));
      rd_query = Stats.summarize (pick (fun (_, b, _, _) -> b));
      delay_full = Stats.summarize (pick (fun (_, _, c, _) -> c));
      delay_query = Stats.summarize (pick (fun (_, _, _, d) -> d));
    }

  let render r =
    let t = Table.create ~columns:[ "knowledge"; "RD reduction vs SPF"; "delay penalty" ] in
    Table.add_row t [ "full topology"; Stats.pct r.rd_full; Stats.pct r.delay_full ];
    Table.add_row t [ "query scheme (§3.3.1)"; Stats.pct r.rd_query; Stats.pct r.delay_query ];
    Printf.sprintf
      "Ablation: topology knowledge (%d scenarios)\n%s\n\
       (the query scheme sees fewer candidates, so part of the gain is lost)\n"
      r.scenarios (Table.render t)
end

module Hierarchical = struct
  type row = {
    scenarios : int;
    failures : int;
    confined_fraction : float;
    flat_escape_fraction : float;
    rd_hier : Stats.summary;
    rd_flat : Stats.summary;
  }

  let d_thresh = 0.3

  (* A failure inside one member stub domain: an on-tree link of the
     domain's sub-tree that is not a bridge of the domain subgraph, so that
     recovery is physically possible. *)
  let domain_failure (dom : Hierarchy.domain) =
    let bridges = Smrp_graph.Connectivity.bridges dom.Hierarchy.sub.Subgraph.graph in
    match List.filter (fun e -> not (List.mem e bridges)) (Tree.tree_edges dom.Hierarchy.tree) with
    | [] -> None
    | sub_eid :: _ -> Some (sub_eid, dom.Hierarchy.sub.Subgraph.edge_from_sub.(sub_eid))

  let stub_of ts v =
    match ts.Transit_stub.roles.(v) with
    | Transit_stub.Stub d -> Some d
    | Transit_stub.Transit _ -> None

  let run_one seed =
    let rng = Rng.create seed in
    let ts = Transit_stub.generate rng Transit_stub.default_params in
    let stub_nodes =
      List.concat (List.init ts.Transit_stub.stub_count (Transit_stub.nodes_of_stub ts))
    in
    let pool = Array.of_list stub_nodes in
    Rng.shuffle rng pool;
    let source = pool.(0) in
    let members = Array.to_list (Array.sub pool 1 12) in
    let hier = Hierarchy.build ~d_thresh ts ~source ~members in
    let flat = Hierarchy.flat_equivalent hier in
    let results = ref [] in
    List.iter
      (fun (dom : Hierarchy.domain) ->
        match domain_failure dom with
        | None -> ()
        | Some (_, orig_eid) ->
            let f = Failure.Link orig_eid in
            let recoveries = Hierarchy.recover hier f in
            let flat_members = Failure.affected_members flat f in
            let flat_recoveries =
              List.filter_map (fun m -> Recovery.local_detour flat f ~member:m) flat_members
            in
            let escapes =
              List.length
                (List.filter
                   (fun d ->
                     List.exists
                       (fun v -> stub_of ts v <> Some dom.Hierarchy.id)
                       d.Recovery.path_nodes)
                   flat_recoveries)
            in
            results :=
              ( List.map (fun r -> r.Hierarchy.recovery_distance) recoveries,
                List.for_all (fun r -> r.Hierarchy.confined) recoveries,
                List.map (fun d -> d.Recovery.recovery_distance) flat_recoveries,
                escapes,
                List.length flat_recoveries )
              :: !results)
      (Hierarchy.member_domains hier);
    !results

  let run ?jobs ?(seed = 13) ?(scenarios = 20) () =
    let all = List.concat (Pool.map ?jobs run_one (Scenario.seeds ~seed ~count:scenarios)) in
    let hier_rds = List.concat_map (fun (h, _, _, _, _) -> h) all in
    let flat_rds = List.concat_map (fun (_, _, f, _, _) -> f) all in
    let confined = List.length (List.filter (fun (_, c, _, _, _) -> c) all) in
    let escapes = List.fold_left (fun acc (_, _, _, e, _) -> acc + e) 0 all in
    let flat_total = List.fold_left (fun acc (_, _, _, _, n) -> acc + n) 0 all in
    {
      scenarios;
      failures = List.length all;
      confined_fraction =
        (match all with [] -> 1.0 | _ -> float_of_int confined /. float_of_int (List.length all));
      flat_escape_fraction =
        (if flat_total = 0 then 0.0 else float_of_int escapes /. float_of_int flat_total);
      rd_hier = Stats.summarize (if hier_rds = [] then [ 0.0 ] else hier_rds);
      rd_flat = Stats.summarize (if flat_rds = [] then [ 0.0 ] else flat_rds);
    }

  let render r =
    Printf.sprintf
      "Ablation: hierarchical recovery (§3.3.3; %d stub-link failures over %d transit-stub \
       networks)\n\
       recoveries confined to owning domain: %5.1f%% (hierarchical)  vs  %5.1f%% of flat \
       detours leaving the domain\n\
       recovery distance: hierarchical %.3f ± %.3f, flat %.3f ± %.3f\n"
      r.failures r.scenarios
      (100.0 *. r.confined_fraction)
      (100.0 *. r.flat_escape_fraction)
      r.rd_hier.Stats.mean r.rd_hier.Stats.ci95 r.rd_flat.Stats.mean r.rd_flat.Stats.ci95
end
