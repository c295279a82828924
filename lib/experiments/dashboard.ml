module Graph = Smrp_graph.Graph
module Dijkstra = Smrp_graph.Dijkstra
module Tree = Smrp_core.Tree
module Spf = Smrp_core.Spf
module Smrp = Smrp_core.Smrp
module Query = Smrp_core.Query
module Metrics = Smrp_obs.Metrics
module Sketch = Smrp_obs.Sketch
module Report = Smrp_obs.Report

type config = {
  seed : int;
  scenarios : int;
  d_values : float list;
  latency_runs : int;
  latency : Latency.config;
}

let default =
  { seed = 42; scenarios = 20; d_values = [ 0.1; 0.3 ]; latency_runs = 3; latency = Latency.default }

let quick =
  {
    seed = 42;
    scenarios = 4;
    d_values = [ 0.3 ];
    latency_runs = 1;
    latency = { Latency.default with Latency.settle_time = 40.0; run_time = 30.0 };
  }

(* Per-member measurement of one variant on one topology: recovery distance
   under that variant's recovery strategy ([None] if isolated) and the
   member's end-to-end tree delay. *)
type rows = (float option * float) list

(* Everything one seed contributes, one [rows] per variant in variant
   order.  Workers return plain data; the orchestrator records it after the
   fan-out joins, so the report never depends on domain scheduling. *)
let variant_names config =
  ("spf baseline" :: List.map (Printf.sprintf "smrp d=%.2f") config.d_values) @ [ "smrp query" ]

let measure_seed config seed : rows list =
  let graph, source, members = Scenario.instance { Scenario.default with Scenario.seed } in
  let ws = Dijkstra.workspace ~capacity:(Graph.node_count graph) () in
  let rows_of tree strategy =
    List.map
      (fun m -> (Scenario.recovery_distance ~ws tree m strategy, Tree.delay_to_source tree m))
      members
  in
  let spf_tree = Spf.build ~ws graph ~source ~members in
  let spf_rows = rows_of spf_tree `Global in
  let smrp_rows =
    List.map
      (fun d -> rows_of (Smrp.build ~d_thresh:d ~ws graph ~source ~members) `Local)
      config.d_values
  in
  let query_rows =
    let d_thresh = Scenario.default.Scenario.d_thresh in
    rows_of (Query.build ~d_thresh ~ws graph ~source ~members) `Local
  in
  (spf_rows :: smrp_rows) @ [ query_rows ]

(* Aligned instrument names across every topology variant: the dashboard's
   comparison tables join on these. *)
let record_rows m (rows : rows) =
  Metrics.Counter.incr (Metrics.counter m "runs");
  Metrics.Counter.add (Metrics.counter m "members") (List.length rows);
  let recovered = Metrics.counter m "recovered"
  and isolated = Metrics.counter m "isolated"
  and rd_q = Metrics.sketch m "rd.q"
  and delay_q = Metrics.sketch m "delay.q" in
  List.iter
    (fun (rd, delay) ->
      (match rd with
      | Some rd ->
          Metrics.Counter.incr recovered;
          Sketch.observe rd_q rd
      | None -> Metrics.Counter.incr isolated);
      Sketch.observe delay_q delay)
    rows

let run ?jobs config =
  if config.scenarios < 1 then invalid_arg "Dashboard.run: scenarios must be positive";
  let seeds = Scenario.seeds ~seed:config.seed ~count:config.scenarios in
  let per_seed = Pool.map ?jobs (measure_seed config) seeds in
  (* One registry per variant, in variant order, even for a variant that
     ends up empty. *)
  let names = variant_names config in
  let registries = List.map (fun _ -> Metrics.create ()) names in
  List.iter
    (fun rows_per_variant -> List.iter2 record_rows registries rows_per_variant)
    per_seed;
  let topology_variants = List.map2 (fun name m -> Report.of_metrics ~name m) names registries in
  (* Packet-level restoration latency (§4.4), sequential, each side
     recording into its own variant's registry. *)
  let packet_variants =
    if config.latency_runs > 0 then begin
      let smrp_metrics = Metrics.create () and pim_metrics = Metrics.create () in
      ignore
        (Latency.run_many ~smrp_metrics ~pim_metrics ~seed:(config.seed + 1)
           ~runs:config.latency_runs config.latency
          : Latency.result list);
      [
        Report.of_metrics ~name:"smrp (packet sim)" smrp_metrics;
        Report.of_metrics ~name:"pim (packet sim)" pim_metrics;
      ]
    end
    else []
  in
  let meta =
    [
      ("seed", string_of_int config.seed);
      ("scenarios", string_of_int config.scenarios);
      ("d_values", String.concat ", " (List.map (Printf.sprintf "%.2f") config.d_values));
      ("latency_runs", string_of_int config.latency_runs);
    ]
  in
  Report.make ~title:"SMRP run report" ~meta (topology_variants @ packet_variants)
