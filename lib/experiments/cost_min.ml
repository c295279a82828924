module Rng = Smrp_rng.Rng
module Tree = Smrp_core.Tree
module Spf = Smrp_core.Spf
module Smrp = Smrp_core.Smrp
module Steiner = Smrp_core.Steiner
module Stats = Smrp_metrics.Stats
module Table = Smrp_metrics.Table

type row = {
  scenarios : int;
  rd_vs_spf : Stats.summary;
  rd_vs_steiner : Stats.summary;
  cost_spf_vs_steiner : Stats.summary;
  cost_smrp_vs_steiner : Stats.summary;
  delay_steiner_vs_spf : Stats.summary;
}

(* Worst-case global-detour RD on the baseline tree vs local-detour RD on
   the SMRP tree — the same full-system metric as Figs. 8-10. *)
let rd_reduction ~ws ~baseline_tree ~smrp_tree m =
  match
    ( Scenario.recovery_distance ~ws baseline_tree m `Global,
      Scenario.recovery_distance ~ws smrp_tree m `Local )
  with
  | Some b, Some i when b > 0.0 -> Some (Stats.relative_reduction ~baseline:b ~improved:i)
  | _ -> None

(* One scenario's contribution, with the per-member item lists in member
   order (the order the sequential loop prepended them in). *)
let run_one (topo_rng, member_rng) =
  let g, source, members = Scenario.draw Scenario.default ~topo_rng ~member_rng in
  let ws = Smrp_graph.Dijkstra.workspace ~capacity:100 () in
  let spf = Spf.build ~ws g ~source ~members in
  let smrp = Smrp.build ~d_thresh:0.3 ~ws g ~source ~members in
  let steiner = Steiner.build g ~source ~members in
  let steiner_cost = Tree.total_cost steiner in
  let cost_spf = Stats.relative_increase ~baseline:steiner_cost ~changed:(Tree.total_cost spf) in
  let cost_smrp = Stats.relative_increase ~baseline:steiner_cost ~changed:(Tree.total_cost smrp) in
  let delay_st =
    List.map
      (fun m ->
        Stats.relative_increase
          ~baseline:(Tree.delay_to_source spf m)
          ~changed:(Tree.delay_to_source steiner m))
      members
  in
  let rd_spf = List.filter_map (rd_reduction ~ws ~baseline_tree:spf ~smrp_tree:smrp) members in
  let rd_st = List.filter_map (rd_reduction ~ws ~baseline_tree:steiner ~smrp_tree:smrp) members in
  (cost_spf, cost_smrp, delay_st, rd_spf, rd_st)

let run ?(seed = 21) ?(scenarios = 50) () =
  let rng = Rng.create seed in
  let draws =
    List.init scenarios (fun _ ->
        let topo_rng = Rng.split rng in
        let member_rng = Rng.split rng in
        (topo_rng, member_rng))
  in
  let results = Pool.map run_one draws in
  (* Merge so each list ends up exactly as the sequential prepend loop left
     it (scenario N's items first, each scenario's items reversed) — the
     float-summation order inside Stats is unchanged. *)
  let merge items_of = List.fold_left (fun acc r -> List.rev_append (items_of r) acc) [] results in
  {
    scenarios;
    rd_vs_spf = Stats.summarize (merge (fun (_, _, _, r, _) -> r));
    rd_vs_steiner = Stats.summarize (merge (fun (_, _, _, _, r) -> r));
    cost_spf_vs_steiner = Stats.summarize (merge (fun (c, _, _, _, _) -> [ c ]));
    cost_smrp_vs_steiner = Stats.summarize (merge (fun (_, c, _, _, _) -> [ c ]));
    delay_steiner_vs_spf = Stats.summarize (merge (fun (_, _, d, _, _) -> d));
  }

let render r =
  let t = Table.create ~columns:[ "baseline system"; "SMRP RD reduction"; "baseline cost vs Steiner" ] in
  Table.add_row t [ "SPF/PIM"; Stats.pct r.rd_vs_spf; Stats.pct r.cost_spf_vs_steiner ];
  Table.add_row t [ "Steiner (cost-min)"; Stats.pct r.rd_vs_steiner; "0 (reference)" ];
  Printf.sprintf
    "Cost-minimising baseline (4.2's conjecture; %d scenarios, Takahashi-Matsuyama trees)\n%s\n\
     SMRP tree cost vs Steiner: %s; Steiner delay penalty vs SPF: %s\n\
     (conjecture holds if SMRP's advantage persists against the cost-min baseline)\n"
    r.scenarios (Table.render t) (Stats.pct r.cost_smrp_vs_steiner)
    (Stats.pct r.delay_steiner_vs_spf)
