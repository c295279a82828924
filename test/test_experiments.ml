(* Experiment drivers: determinism and sanity of the figure pipelines at
   reduced scale (full-scale runs live in bench/main.exe). *)

module Scenario = Smrp_experiments.Scenario
module Figures = Smrp_experiments.Figures
module Latency = Smrp_experiments.Latency
module Ablation = Smrp_experiments.Ablation
module Stats = Smrp_metrics.Stats
module Tree = Smrp_core.Tree
module Pool = Smrp_experiments.Pool
module Metrics = Smrp_obs.Metrics
module Flight = Smrp_obs.Flight
module Causal = Smrp_obs.Causal
module Profile = Smrp_obs.Profile

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let scenario_deterministic () =
  let a = Scenario.run { Scenario.default with Scenario.seed = 9 } in
  let b = Scenario.run { Scenario.default with Scenario.seed = 9 } in
  check "same source" true (a.Scenario.source = b.Scenario.source);
  check "same members" true (a.Scenario.members = b.Scenario.members);
  check "same aggregates" true (Scenario.aggregates a = Scenario.aggregates b)

let scenario_shapes () =
  let s = Scenario.run { Scenario.default with Scenario.seed = 4 } in
  check_int "group size" 30 (List.length s.Scenario.members);
  check_int "outcome per member" 30 (List.length s.Scenario.outcomes);
  check "source not member" true (not (List.mem s.Scenario.source s.Scenario.members));
  check "trees validate" true
    (Tree.validate s.Scenario.spf_tree = Ok () && Tree.validate s.Scenario.smrp_tree = Ok ());
  check "positive costs" true (s.Scenario.cost_spf > 0.0 && s.Scenario.cost_smrp > 0.0);
  let a = Scenario.aggregates s in
  check "cost penalty sane" true (a.Scenario.cost_relative > -0.5 && a.Scenario.cost_relative < 1.0)

let scenario_rejects_oversized_group () =
  Alcotest.check_raises "too big" (Invalid_argument "Scenario.run: group larger than network")
    (fun () -> ignore (Scenario.run { Scenario.default with Scenario.n = 10; group_size = 10 }))

let fig7_smoke () =
  let r = Figures.Fig7.run ~seed:1 ~topologies:2 () in
  check "points exist" true (List.length r.Figures.Fig7.points > 20);
  check "local never worse" true
    (1.0 -. r.Figures.Fig7.below_diagonal_fraction -. r.Figures.Fig7.on_diagonal_fraction < 0.01);
  check "renders" true (String.length (Figures.Fig7.render r) > 100)

let fig8_smoke () =
  let rows = Figures.Fig8.run ~seed:1 ~values:[ 0.1; 0.4 ] ~scenarios:8 () in
  check_int "two rows" 2 (List.length rows);
  let r01 = List.hd rows and r04 = List.nth rows 1 in
  check "penalty grows with threshold" true
    (r04.Figures.Fig8.delay.Stats.mean >= r01.Figures.Fig8.delay.Stats.mean);
  check "renders" true (String.length (Figures.Fig8.render rows) > 100)

let fig9_smoke () =
  let rows = Figures.Fig9.run ~seed:1 ~values:[ 0.15; 0.3 ] ~scenarios:8 ~degree_ten_row:false () in
  check_int "two rows" 2 (List.length rows);
  check "degree grows with alpha" true
    ((List.nth rows 1).Figures.Fig9.average_degree > (List.hd rows).Figures.Fig9.average_degree)

let fig10_smoke () =
  let rows = Figures.Fig10.run ~seed:1 ~values:[ 20; 40 ] ~scenarios:8 () in
  check_int "two rows" 2 (List.length rows);
  check "renders" true (String.length (Figures.Fig10.render rows) > 100)

let fig9_parallel_identical_snapshot () =
  (* The satellite-2 determinism check: a figure run on 1 domain and on 4
     must agree on the rendering AND on the merged metrics snapshot — not
     just on what is printed.  Fig. 9 uses the default [`Unit] link metric,
     so every observed value is an integer and the equality is exact. *)
  let leg jobs =
    let metrics = Metrics.create () in
    let rows =
      Figures.Fig9.run ~jobs ~metrics ~seed:9 ~values:[ 0.2; 0.3 ] ~scenarios:6
        ~degree_ten_row:false ()
    in
    (Figures.Fig9.render rows, Metrics.snapshot metrics)
  in
  let render_seq, snap_seq = leg 1 in
  let render_par, snap_par = leg 4 in
  check "renderings identical" true (String.equal render_seq render_par);
  check "merged snapshots identical" true (snap_seq = snap_par);
  (* The snapshot is non-trivial: 12 scenarios of 30 members each. *)
  match List.assoc_opt "scenario.members" snap_par with
  | Some (Metrics.Counter_value n) -> check_int "members counted" 360 n
  | _ -> Alcotest.fail "scenario.members missing"

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = affix || at (i + 1)) in
  at 0

let pool_profile_and_trace_hooks () =
  (* Pool.map on four domains with instrumentation live: worker task
     totals must equal the input size, every task span must appear in the
     Chrome projection exactly once, each worker's span on its own domain
     track, and the mapped result must be unaffected. *)
  let profile = Profile.create () in
  let flight = Flight.create ~capacity:4096 () in
  let xs = List.init 23 Fun.id in
  let ys =
    Pool.with_instrumentation ~profile ~flight (fun () -> Pool.map ~jobs:4 (fun x -> x * x) xs)
  in
  check "results unaffected" true (ys = List.map (fun x -> x * x) xs);
  let workers = Profile.workers profile in
  check_int "one record per worker domain" 4 (List.length workers);
  check_int "worker task totals cover the input" 23
    (List.fold_left (fun acc (w : Profile.worker) -> acc + w.Profile.tasks) 0 workers);
  List.iter
    (fun (w : Profile.worker) ->
      check "busy within lifetime" true (w.Profile.busy_s <= w.Profile.wall_s +. 1e-6))
    workers;
  let records = Flight.snapshot flight in
  let spans code = List.filter (fun (r : Flight.decoded) -> r.Flight.d_code = code) records in
  let field get code = List.map get (spans code) in
  let indices = List.sort compare (field (fun r -> r.Flight.d_b) Flight.span_pool_task) in
  check "every index recorded once" true (indices = xs);
  let worker_spans = spans Flight.span_pool_worker in
  check_int "one worker span per domain" 4
    (List.length (List.sort_uniq compare (field (fun r -> r.Flight.d_domain) Flight.span_pool_worker)));
  check_int "worker spans count the tasks" 23
    (List.fold_left (fun acc (r : Flight.decoded) -> acc + r.Flight.d_b) 0 worker_spans);
  let lines = ref [] in
  Causal.to_chrome (fun l -> lines := l :: !lines) records;
  let named name = List.filter (contains ~affix:(Printf.sprintf "\"name\":\"%s\"" name)) !lines in
  check_int "one task span per index" 23 (List.length (named "pool.task"));
  List.iter
    (fun i ->
      check_int (Printf.sprintf "index %d projected once" i) 1
        (List.length (List.filter (contains ~affix:(Printf.sprintf "\"index\":%d}" i)) (named "pool.task"))))
    xs;
  check_int "one worker span per domain track" 4 (List.length (named "pool.worker"));
  check "spans are complete events" true
    (List.for_all (contains ~affix:"\"ph\":\"X\"") (named "pool.task" @ named "pool.worker"));
  (* The ambient hooks are restored on exit: an uninstrumented map records
     nothing new. *)
  ignore (Pool.map ~jobs:2 Fun.id [ 1; 2; 3 ]);
  check_int "ambient hooks restored" 4 (List.length (Profile.workers profile));
  check_int "no new records" (List.length records) (List.length (Flight.snapshot flight))

exception Bad of int

let pool_raises_lowest_failure () =
  (* Index 0 fails late, index 1 at once: every job count must raise what
     List.map raises, the lowest failing index. *)
  let f i =
    if i = 0 then begin
      Unix.sleepf 0.05;
      raise (Bad 0)
    end
    else if i = 1 then raise (Bad 1)
    else i
  in
  List.iter
    (fun jobs ->
      match Pool.map ~jobs f [ 0; 1; 2; 3 ] with
      | _ -> Alcotest.failf "jobs=%d: no exception" jobs
      | exception Bad k -> check_int (Printf.sprintf "jobs=%d raises Bad 0" jobs) 0 k)
    [ 1; 2; 4 ]

let latency_smoke () =
  let cfg = { Latency.default with Latency.settle_time = 40.0; run_time = 30.0 } in
  let results = Latency.run_many ~seed:3 ~runs:2 cfg in
  check "two runs" true (List.length results = 2);
  List.iter
    (fun r ->
      if r.Latency.smrp.Latency.restored > 0 && r.Latency.pim.Latency.restored > 0 then
        check "local restores faster" true
          (r.Latency.smrp.Latency.mean_restoration < r.Latency.pim.Latency.mean_restoration))
    results;
  check "renders" true (String.length (Latency.render results) > 100)

let ablation_reshaping_smoke () =
  let r = Ablation.Reshaping.run ~seed:2 ~scenarios:6 () in
  check "switches happen" true (r.Ablation.Reshaping.switches_per_scenario > 0.0);
  check "renders" true (String.length (Ablation.Reshaping.render r) > 50)

let ablation_query_smoke () =
  let r = Ablation.Query.run ~seed:2 ~scenarios:6 () in
  check "query keeps only part of the gain" true
    (r.Ablation.Query.rd_query.Stats.mean <= r.Ablation.Query.rd_full.Stats.mean +. 0.1);
  check "renders" true (String.length (Ablation.Query.render r) > 50)

let overhead_smoke () =
  let r = Smrp_experiments.Overhead.run ~members:8 ~sim_time:40.0 () in
  let open Smrp_experiments.Overhead in
  check "hello baseline identical" true (r.smrp.hello = r.pim.hello);
  check "joins signalled" true (r.smrp.join_req > 0 && r.pim.join_req > 0);
  check "join overhead comparable (within 3x)" true
    (r.smrp.join_req < 3 * r.pim.join_req && r.pim.join_req < 3 * r.smrp.join_req);
  check "renders" true (String.length (render r) > 80)

let ablation_hierarchy_smoke () =
  let r = Ablation.Hierarchical.run ~seed:2 ~scenarios:3 () in
  check "confined" true (r.Ablation.Hierarchical.confined_fraction = 1.0);
  check "failures measured" true (r.Ablation.Hierarchical.failures > 0);
  check "renders" true (String.length (Ablation.Hierarchical.render r) > 50)

(* The MD5 of every experiment's rendered output at small fixed scale, each
   at its driver's default seed.  These outputs are what the CLI and the
   bench print, so a refactor of how experiments draw, seed or measure
   their instances must leave every digest unchanged.  A deliberate change
   of behaviour regenerates the list from this test's failure output. *)
let golden_renders () =
  let module Cost_min = Smrp_experiments.Cost_min in
  let module Families = Smrp_experiments.Families in
  let module Overhead = Smrp_experiments.Overhead in
  let module Related_work = Smrp_experiments.Related_work in
  let module Dashboard = Smrp_experiments.Dashboard in
  let fig8 = Figures.Fig8.run ~scenarios:4 () in
  let outputs =
    [
      ("fig7", Figures.Fig7.render (Figures.Fig7.run ~topologies:2 ()));
      ("fig8", Figures.Fig8.render fig8);
      ("fig8.csv", Figures.Fig8.csv fig8);
      ("fig9", Figures.Fig9.render (Figures.Fig9.run ~scenarios:4 ()));
      ("fig10", Figures.Fig10.render (Figures.Fig10.run ~scenarios:4 ()));
      ("reshaping", Ablation.Reshaping.render (Ablation.Reshaping.run ~scenarios:4 ()));
      ("query", Ablation.Query.render (Ablation.Query.run ~scenarios:4 ()));
      ("hierarchical", Ablation.Hierarchical.render (Ablation.Hierarchical.run ~scenarios:2 ()));
      ("cost_min", Cost_min.render (Cost_min.run ~scenarios:4 ()));
      ("families", Families.render (Families.run ~scenarios:4 ()));
      ("overhead", Overhead.render (Overhead.run ~members:8 ~sim_time:40.0 ()));
      ( "related_work",
        Related_work.render
          (Related_work.feasibility ~samples:4 ())
          (Related_work.compare_schemes ~scenarios:4 ()) );
      ("latency", Latency.render (Latency.run_many ~runs:1 Latency.default));
      ( "dashboard.json",
        Smrp_obs.Report.to_string
          (Dashboard.run ~jobs:2 { Dashboard.quick with Dashboard.scenarios = 2 }) );
    ]
  in
  let pinned =
    [
      ("fig7", "e47b9cf66ddb281676ccbe0933951b50");
      ("fig8", "447f045ce6c8f5dfaec01df36bd74ba1");
      ("fig8.csv", "062efbd6f6ac8f0bd284fa3f959ba900");
      ("fig9", "772cf78a02a6093e31866a4b42c82b25");
      ("fig10", "9fcf6d431ab022640f8cce97a9593382");
      ("reshaping", "4e6f33b97c1bd0980b8dbf772b9afe6d");
      ("query", "3e50c62f6ab0b447c6d358c4966fd544");
      ("hierarchical", "d9ccb8a3eb76a5874e2e51caec43dab7");
      ("cost_min", "52dba1f16eb11bfebeb202093ba3983f");
      ("families", "623fa8e2feac085b7e279f97b3f120eb");
      ("overhead", "4fd8e6666bc545cb7b6964e68c8ac5ee");
      ("related_work", "b33e20c1f41812222cee5f85b9777e22");
      ("latency", "88cf586b9732a7d80fb728af2baf0dc2");
      ("dashboard.json", "7d678276b7e82a91eebdc86405da3f83");
    ]
  in
  let actual = List.map (fun (name, out) -> (name, Digest.to_hex (Digest.string out))) outputs in
  Alcotest.(check (list (pair string string))) "render digests" pinned actual

let () =
  Alcotest.run "experiments"
    [
      ( "scenario",
        [
          Alcotest.test_case "deterministic" `Quick scenario_deterministic;
          Alcotest.test_case "shapes" `Quick scenario_shapes;
          Alcotest.test_case "rejects oversized group" `Quick scenario_rejects_oversized_group;
        ] );
      ( "figures",
        [
          Alcotest.test_case "fig7" `Quick fig7_smoke;
          Alcotest.test_case "fig8" `Quick fig8_smoke;
          Alcotest.test_case "fig9" `Quick fig9_smoke;
          Alcotest.test_case "fig10" `Quick fig10_smoke;
        ] );
      ( "observability",
        [
          Alcotest.test_case "fig9 seq/par identical snapshot" `Quick
            fig9_parallel_identical_snapshot;
          Alcotest.test_case "pool profile and trace hooks" `Quick pool_profile_and_trace_hooks;
          Alcotest.test_case "pool raises the lowest failing index" `Quick
            pool_raises_lowest_failure;
        ] );
      ( "extensions",
        [
          Alcotest.test_case "latency" `Slow latency_smoke;
          Alcotest.test_case "reshaping ablation" `Quick ablation_reshaping_smoke;
          Alcotest.test_case "query ablation" `Quick ablation_query_smoke;
          Alcotest.test_case "hierarchy ablation" `Quick ablation_hierarchy_smoke;
          Alcotest.test_case "overhead" `Quick overhead_smoke;
        ] );
      ("golden", [ Alcotest.test_case "render digests" `Quick golden_renders ]);
    ]
