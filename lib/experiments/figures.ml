module Rng = Smrp_rng.Rng
module Stats = Smrp_metrics.Stats
module Table = Smrp_metrics.Table
module Waxman = Smrp_topology.Waxman

(* All data points of a figure fan out through one flat Pool.map — a slow
   config does not serialize behind a fast one — and are regrouped per
   config afterwards, preserving the sequential order exactly.  Every data
   point runs on the same scenario seeds. *)
let sweep ?jobs ?metrics ~seed ~scenarios ~configs () =
  let seeds = Scenario.seeds ~seed ~count:scenarios in
  let per_config = List.map (fun make_config -> List.map make_config seeds) configs in
  let results = ref (Scenario.run_many ?jobs ?metrics (List.concat per_config)) in
  List.map
    (fun cfgs ->
      let k = List.length cfgs in
      let rec take k acc rest =
        if k = 0 then (List.rev acc, rest)
        else match rest with x :: tl -> take (k - 1) (x :: acc) tl | [] -> assert false
      in
      let group, rest = take k [] !results in
      results := rest;
      group)
    per_config

type point_summary = {
  rd : Stats.summary;
  rd_tree : Stats.summary;
  delay : Stats.summary;
  cost : Stats.summary;
  degree : Stats.summary;
}

let summaries runs =
  let aggs = List.map Scenario.aggregates runs in
  {
    rd = Stats.summarize (List.map (fun a -> a.Scenario.rd_relative) aggs);
    rd_tree = Stats.summarize (List.map (fun a -> a.Scenario.rd_relative_tree) aggs);
    delay = Stats.summarize (List.map (fun a -> a.Scenario.delay_relative) aggs);
    cost = Stats.summarize (List.map (fun a -> a.Scenario.cost_relative) aggs);
    degree = Stats.summarize (List.map (fun r -> r.Scenario.average_degree) runs);
  }

let num v = Printf.sprintf "%.6f" v

let num_pair s = [ num s.Stats.mean; num s.Stats.ci95 ]

module Fig7 = struct
  type result = {
    points : (float * float) list;
    mean_reduction : float;
    below_diagonal_fraction : float;
    on_diagonal_fraction : float;
  }

  let run ?jobs ?metrics ?(seed = 7) ?(topologies = 5) () =
    let scenarios =
      Scenario.run_many ?jobs ?metrics
        (List.map
           (fun s -> { Scenario.default with seed = s; link_delay = `Euclidean })
           (Scenario.seeds ~seed ~count:topologies))
    in
    let pairs =
      List.concat_map
        (fun scenario ->
          List.map
            (fun o -> (o.Scenario.rd_global_smrp, o.Scenario.rd_local_smrp))
            scenario.Scenario.outcomes)
        scenarios
    in
    let points = List.filter_map (function Some g, Some l -> Some (g, l) | _ -> None) pairs in
    let fraction pred =
      match points with
      | [] -> 0.0
      | _ -> float_of_int (List.length (List.filter pred points)) /. float_of_int (List.length points)
    in
    {
      points;
      mean_reduction = Scenario.mean_reduction pairs;
      below_diagonal_fraction = fraction (fun (g, l) -> l < g -. 1e-9);
      on_diagonal_fraction = fraction (fun (g, l) -> abs_float (g -. l) <= 1e-9);
    }

  let render r =
    let plot =
      Table.scatter ~xlabel:"RD via global detour" ~ylabel:"RD via local detour" r.points
    in
    Printf.sprintf
      "Figure 7: local vs global detour (SMRP tree, worst-case failures)\n%s\n\
       points: %d; strictly below y=x: %.1f%%; on the diagonal: %.1f%% (above: %.1f%%)\n\
       mean recovery-path reduction: %.1f%% (paper: ~33%%)\n"
      plot (List.length r.points)
      (100.0 *. r.below_diagonal_fraction)
      (100.0 *. r.on_diagonal_fraction)
      (100.0 *. (1.0 -. r.below_diagonal_fraction -. r.on_diagonal_fraction))
      (100.0 *. r.mean_reduction)

  let csv r =
    let t = Table.create ~columns:[ "global_rd"; "local_rd" ] in
    List.iter (fun (g, l) -> Table.add_row t [ num g; num l ]) r.points;
    Table.to_csv t
end

module Fig8 = struct
  type row = {
    d_thresh : float;
    rd : Stats.summary;
    rd_tree : Stats.summary;
    delay : Stats.summary;
    cost : Stats.summary;
  }

  let run ?jobs ?metrics ?(seed = 8) ?(values = [ 0.1; 0.2; 0.3; 0.4 ]) ?(scenarios = 100) () =
    let configs =
      List.map (fun dt s -> { Scenario.default with d_thresh = dt; seed = s }) values
    in
    List.map2
      (fun dt runs ->
        let s = summaries runs in
        { d_thresh = dt; rd = s.rd; rd_tree = s.rd_tree; delay = s.delay; cost = s.cost })
      values
      (sweep ?jobs ?metrics ~seed ~scenarios ~configs ())

  let render rows =
    let t =
      Table.create
        ~columns:[ "D_thresh"; "RD reduction"; "RD (tree only)"; "delay penalty"; "cost penalty" ]
    in
    List.iter
      (fun r ->
        Table.add_row t
          [
            Printf.sprintf "%.2f" r.d_thresh;
            Stats.pct r.rd;
            Stats.pct r.rd_tree;
            Stats.pct r.delay;
            Stats.pct r.cost;
          ])
      rows;
    Printf.sprintf
      "Figure 8: effect of D_thresh (N=100, N_G=30, alpha=0.2)\n%s\n\
       (paper at 0.3: RD -20%%, delay/cost +5%%; improvement grows with D_thresh)\n"
      (Table.render t)

  let csv rows =
    let t =
      Table.create
        ~columns:
          [
            "d_thresh"; "rd_mean"; "rd_ci95"; "rd_tree_mean"; "rd_tree_ci95"; "delay_mean";
            "delay_ci95"; "cost_mean"; "cost_ci95";
          ]
    in
    List.iter
      (fun r ->
        Table.add_row t
          ((num r.d_thresh :: num_pair r.rd)
          @ num_pair r.rd_tree @ num_pair r.delay @ num_pair r.cost))
      rows;
    Table.to_csv t
end

module Fig9 = struct
  type row = {
    alpha : float;
    average_degree : float;
    rd : Stats.summary;
    delay : Stats.summary;
    cost : Stats.summary;
  }

  let run ?jobs ?metrics ?(seed = 9) ?(values = [ 0.15; 0.2; 0.25; 0.3 ]) ?(scenarios = 100)
      ?(degree_ten_row = true) () =
    let values =
      if degree_ten_row then begin
        let rng = Rng.create (seed + 1) in
        let alpha10 =
          Waxman.calibrate_alpha rng ~n:Scenario.default.Scenario.n
            ~beta:Scenario.default.Scenario.beta ~target_degree:10.0
        in
        values @ [ alpha10 ]
      end
      else values
    in
    let configs = List.map (fun a s -> { Scenario.default with alpha = a; seed = s }) values in
    List.map2
      (fun a runs ->
        let s = summaries runs in
        { alpha = a; average_degree = s.degree.Stats.mean; rd = s.rd; delay = s.delay; cost = s.cost })
      values
      (sweep ?jobs ?metrics ~seed ~scenarios ~configs ())

  let render rows =
    let t =
      Table.create
        ~columns:[ "alpha"; "avg degree"; "RD reduction"; "delay penalty"; "cost penalty" ]
    in
    List.iter
      (fun r ->
        Table.add_row t
          [
            Printf.sprintf "%.3f" r.alpha;
            Printf.sprintf "%.2f" r.average_degree;
            Stats.pct r.rd;
            Stats.pct r.delay;
            Stats.pct r.cost;
          ])
      rows;
    Printf.sprintf
      "Figure 9: effect of alpha / node degree (N=100, N_G=30, D_thresh=0.3)\n%s\n\
       (paper: improvement shrinks slightly with degree; ~12%% at degree 10)\n"
      (Table.render t)

  let csv rows =
    let t =
      Table.create
        ~columns:
          [
            "alpha"; "avg_degree"; "rd_mean"; "rd_ci95"; "delay_mean"; "delay_ci95"; "cost_mean";
            "cost_ci95";
          ]
    in
    List.iter
      (fun r ->
        Table.add_row t
          ((num r.alpha :: num r.average_degree :: num_pair r.rd)
          @ num_pair r.delay @ num_pair r.cost))
      rows;
    Table.to_csv t
end

module Fig10 = struct
  type row = {
    group_size : int;
    rd : Stats.summary;
    delay : Stats.summary;
    cost : Stats.summary;
  }

  let run ?jobs ?metrics ?(seed = 10) ?(values = [ 20; 30; 40; 50 ]) ?(scenarios = 100) () =
    let configs = List.map (fun ng s -> { Scenario.default with group_size = ng; seed = s }) values in
    List.map2
      (fun ng runs ->
        let s = summaries runs in
        { group_size = ng; rd = s.rd; delay = s.delay; cost = s.cost })
      values
      (sweep ?jobs ?metrics ~seed ~scenarios ~configs ())

  let render rows =
    let t =
      Table.create ~columns:[ "N_G"; "RD reduction"; "delay penalty"; "cost penalty" ]
    in
    List.iter
      (fun r ->
        Table.add_row t
          [ string_of_int r.group_size; Stats.pct r.rd; Stats.pct r.delay; Stats.pct r.cost ])
      rows;
    Printf.sprintf
      "Figure 10: effect of group size (N=100, alpha=0.2, D_thresh=0.3)\n%s\n\
       (paper: steady ~20%% RD reduction at ~5%% overhead, slight decline with N_G)\n"
      (Table.render t)

  let csv rows =
    let t =
      Table.create
        ~columns:
          [ "group_size"; "rd_mean"; "rd_ci95"; "delay_mean"; "delay_ci95"; "cost_mean"; "cost_ci95" ]
    in
    List.iter
      (fun r ->
        Table.add_row t
          ((string_of_int r.group_size :: num_pair r.rd) @ num_pair r.delay @ num_pair r.cost))
      rows;
    Table.to_csv t
end
