(* The evaluation harness: regenerates every table/figure of the paper's §4
   plus this reproduction's extension experiments, then times the core
   operations with Bechamel.

   Scale: figures use the paper's scenario counts (100 per data point) by
   default; set SMRP_BENCH_SCENARIOS to scale down for a quick pass, and
   SMRP_BENCH_JOBS to pin the domain count of the scenario fan-out.

   Each figure is rendered twice — sequentially (jobs=1) and on the default
   domain pool — and the harness asserts the two renderings are
   byte-identical before printing, then writes both wall-clock timings and
   the micro-benchmark estimates to BENCH_RESULTS.json (schema version 2).

   A fixed-scale deterministic workload section (a small seeded Fig. 9
   sweep, independent of SMRP_BENCH_SCENARIOS) anchors the regression gate:
   its rendering digest and merged metrics totals are exact across machines,
   so bench/check.ml compares them against bench/BASELINE.json with zero
   tolerance, while the machine-dependent micro numbers get relative
   tolerances.  The harness also appends one line per run to
   BENCH_HISTORY.jsonl and writes the workload's stitched multi-domain
   Chrome trace to BENCH_TRACE.jsonl. *)

module Figures = Smrp_experiments.Figures
module Latency = Smrp_experiments.Latency
module Ablation = Smrp_experiments.Ablation
module Scenario = Smrp_experiments.Scenario
module Pool = Smrp_experiments.Pool
module Rng = Smrp_rng.Rng
module Graph = Smrp_graph.Graph
module Dijkstra = Smrp_graph.Dijkstra
module Dspf = Smrp_graph.Dspf
module Waxman = Smrp_topology.Waxman
module Scale = Smrp_topology.Scale
module Tree = Smrp_core.Tree
module Protect = Smrp_core.Protect
module Spf = Smrp_core.Spf
module Smrp = Smrp_core.Smrp
module Reshape = Smrp_core.Reshape
module Failure = Smrp_core.Failure
module Recovery = Smrp_core.Recovery
module Engine = Smrp_sim.Engine
module Metrics = Smrp_obs.Metrics
module Flight = Smrp_obs.Flight
module Profile = Smrp_obs.Profile
module J = Bench_support.Bench_json

let scenarios =
  match Sys.getenv_opt "SMRP_BENCH_SCENARIOS" with
  | Some v -> (
      match int_of_string_opt (String.trim v) with
      | Some n -> max 2 n
      | None ->
          Printf.eprintf
            "warning: SMRP_BENCH_SCENARIOS=%S is not an integer; using the default of 100\n%!" v;
          100)
  | None -> 100

let section title = Printf.printf "\n=== %s ===\n\n%!" title

(* -- Figures: sequential vs domain-parallel --------------------------- *)

let figure_timings : (string * float * float) list ref = ref []

(* Render [f ~jobs] once sequentially and once on the default pool, check
   the outputs agree byte-for-byte, record both wall-clock times. *)
let timed_figure name f =
  let time jobs =
    let t0 = Unix.gettimeofday () in
    let out = f ~jobs in
    (out, Unix.gettimeofday () -. t0)
  in
  let seq, seq_s = time (Some 1) in
  let par, par_s = time None in
  if not (String.equal seq par) then (
    Printf.eprintf "FATAL: %s: parallel rendering differs from sequential\n%!" name;
    exit 1);
  figure_timings := (name, seq_s, par_s) :: !figure_timings;
  print_string par;
  Printf.printf "[%s: %.2fs sequential, %.2fs on %d domain(s)]\n" name seq_s par_s
    (Pool.default_jobs ())

let figures () =
  section "Figure 7 (local vs global detour, 4.3.1)";
  timed_figure "fig7" (fun ~jobs -> Figures.Fig7.render (Figures.Fig7.run ?jobs ()));
  section "Figure 8 (effect of D_thresh, 4.3.2)";
  timed_figure "fig8" (fun ~jobs -> Figures.Fig8.render (Figures.Fig8.run ?jobs ~scenarios ()));
  section "Figure 9 (effect of alpha / node degree, 4.3.3)";
  timed_figure "fig9" (fun ~jobs -> Figures.Fig9.render (Figures.Fig9.run ?jobs ~scenarios ()));
  section "Figure 10 (effect of group size, 4.3.4)";
  timed_figure "fig10" (fun ~jobs -> Figures.Fig10.render (Figures.Fig10.run ?jobs ~scenarios ()))

(* -- Regression-gate workload ------------------------------------------ *)

(* A fixed-scale seeded Fig. 9 sweep (4 alpha values x 4 scenarios, 480
   member measurements), independent of SMRP_BENCH_SCENARIOS: small enough
   for CI, deterministic enough that its rendering digest and merged
   metrics totals are exact across machines (the default [`Unit] link
   metric makes every observed value an integer, so even the sketch sums
   are schedule-independent).  The parallel leg runs with the whole
   instrumentation stack live — sharded metrics, per-domain flight rings
   for the spans, pool/GC profiling — and must agree with the
   uninstrumented sequential leg exactly; this is the property the
   regression gate pins. *)

type workload_result = {
  digest : string;
  wl_metrics : (string * float) list;
  seq_par_identical : bool;
}

let workload () =
  section "Regression-gate workload (fixed scale, deterministic)";
  let run ?jobs ~metrics ?profile ?flight () =
    Pool.with_instrumentation ?profile ?flight (fun () ->
        Figures.Fig9.render
          (Figures.Fig9.run ?jobs ~metrics ~seed:9
             ~values:[ 0.15; 0.2; 0.25; 0.3 ]
             ~scenarios:4 ~degree_ten_row:false ()))
  in
  let m_seq = Metrics.create () in
  let seq = run ~jobs:1 ~metrics:m_seq () in
  let m_par = Metrics.create () in
  let profile = Profile.create () in
  let flight = Flight.create ~capacity:65536 () in
  (* Four explicit domains, not the pool default: the gate must exercise
     multi-domain merge and stitching even on single-core runners. *)
  let par = run ~jobs:4 ~metrics:m_par ~profile ~flight () in
  let renders_equal = String.equal seq par in
  let snapshots_equal = Metrics.snapshot m_seq = Metrics.snapshot m_par in
  if not (renders_equal && snapshots_equal) then begin
    Printf.eprintf
      "FATAL: workload: parallel run differs from sequential (renderings equal: %b, merged \
       snapshots equal: %b)\n\
       %!"
      renders_equal snapshots_equal;
    exit 1
  end;
  print_string par;
  Printf.printf "merged metrics (%d shard(s)):\n%s\n" (Metrics.shard_count m_par)
    (Metrics.render m_par);
  Printf.printf "pool/GC profile:\n%s\n" (Profile.render profile);
  let oc = open_out "BENCH_TRACE.jsonl" in
  let events = ref 0 in
  Smrp_obs.Causal.to_chrome
    (fun line ->
      incr events;
      output_string oc line;
      output_char oc '\n')
    (Flight.snapshot flight);
  close_out oc;
  Printf.printf "wrote BENCH_TRACE.jsonl (%d stitched events)\n" !events;
  let wl_metrics =
    List.concat_map
      (fun (name, v) ->
        match v with
        | Metrics.Counter_value n -> [ (name, float_of_int n) ]
        | Metrics.Sketch_value s ->
            [ (name ^ ".count", float_of_int s.Smrp_obs.Sketch.s_count); (name ^ ".sum", s.Smrp_obs.Sketch.s_sum) ]
        | Metrics.Gauge_value _ | Metrics.Series_value _ -> [])
      (Metrics.snapshot m_par)
  in
  { digest = Digest.to_hex (Digest.string par); wl_metrics; seq_par_identical = true }

(* -- Run report / dashboard -------------------------------------------- *)

(* The report campaign at CI scale, run once sequentially and once on four
   explicit domains.  Gates (both fatal): the two reports must serialize to
   byte-identical JSON, and parsing that JSON back must reproduce it
   exactly.  The HTML dashboard and the JSON land next to the other bench
   artefacts for CI upload. *)
let report () =
  section "Run report (comparison dashboard; sequential vs 4-domain identity)";
  let module Report = Smrp_obs.Report in
  let module Dashboard = Smrp_experiments.Dashboard in
  let seq = Dashboard.run ~jobs:1 Dashboard.quick in
  let par = Dashboard.run ~jobs:4 Dashboard.quick in
  let seq_s = Report.to_string seq in
  let par_s = Report.to_string par in
  if not (String.equal seq_s par_s) then begin
    Printf.eprintf "FATAL: report: 4-domain report JSON differs from sequential\n%!";
    exit 1
  end;
  (match Report.of_string par_s with
  | round when String.equal (Report.to_string round) par_s -> ()
  | _ ->
      Printf.eprintf "FATAL: report: JSON round-trip is not the identity\n%!";
      exit 1
  | exception exn ->
      Printf.eprintf "FATAL: report: emitted JSON does not parse back: %s\n%!"
        (Printexc.to_string exn);
      exit 1);
  print_string (Report.render_ascii par);
  let write path contents =
    let oc = open_out path in
    output_string oc contents;
    close_out oc
  in
  write "BENCH_REPORT.json" (par_s ^ "\n");
  write "BENCH_REPORT.html" (Report.render_html par);
  Printf.printf
    "\nwrote BENCH_REPORT.json and BENCH_REPORT.html (sequential/4-domain JSON identical, \
     round-trip exact)\n"

let traced_latency () =
  (* The same restoration-latency scenario with the observability layer
     live: a flight recorder per side plus per-side metric registries. *)
  section "Restoration latency, traced variant (per-side flight recorders + metrics)";
  match Latency.run_one ~flight:true ~with_metrics:true ~seed:25 Latency.default with
  | Some r ->
      print_string (Latency.render [ r ]);
      let events = ref 0 in
      Latency.to_chrome r (fun _ -> incr events);
      Printf.printf "trace events projected from the flight records: %d\n" !events
  | None -> print_string "no recoverable scenario found\n"

let extensions () =
  section "Restoration latency (packet-level; the paper's 1 motivation, [25])";
  print_string (Latency.render (Latency.run_many ~runs:10 Latency.default));
  traced_latency ();
  section "Ablation: tree reshaping (3.2.3)";
  print_string (Ablation.Reshaping.render (Ablation.Reshaping.run ~scenarios:(max 10 (scenarios / 2)) ()));
  section "Ablation: query scheme (3.3.1)";
  print_string (Ablation.Query.render (Ablation.Query.run ~scenarios:(max 10 (scenarios / 2)) ()));
  section "Ablation: hierarchical recovery (3.3.3)";
  print_string (Ablation.Hierarchical.render (Ablation.Hierarchical.run ~scenarios:(max 5 (scenarios / 5)) ()));
  section "Cost-minimising baseline (4.2 conjecture, Wei & Estrin [13])";
  print_string
    (Smrp_experiments.Cost_min.render (Smrp_experiments.Cost_min.run ~scenarios:(max 10 (scenarios / 2)) ()));
  section "Protocol overhead (3.3.2)";
  print_string (Smrp_experiments.Overhead.render (Smrp_experiments.Overhead.run ()));
  section "Topology families (Zegura et al. [7])";
  print_string
    (Smrp_experiments.Families.render
       (Smrp_experiments.Families.run ~scenarios:(max 10 (scenarios / 2)) ()));
  section "Related work: redundant trees (Medard et al. [16], 2)";
  let feas = Smrp_experiments.Related_work.feasibility ~samples:scenarios () in
  let cmp = Smrp_experiments.Related_work.compare_schemes ~scenarios:(max 10 (scenarios / 2)) () in
  print_string (Smrp_experiments.Related_work.render feas cmp)

(* -- Bechamel micro-benchmarks ---------------------------------------- *)

let micro () =
  let open Bechamel in
  section "Microbenchmarks (Bechamel, monotonic clock)";
  (* A fixed reference scenario shared by the pure-computation benches. *)
  let s = Scenario.run Scenario.default in
  let graph = s.Scenario.graph in
  let source = s.Scenario.source in
  let members = s.Scenario.members in
  let victim = List.hd members in
  let worst = Option.get (Failure.worst_case_for_member s.Scenario.smrp_tree victim) in
  (* Steady-state operation benches reuse one workspace, as the protocol
     stack does; the build benches exercise the default private-workspace
     path end to end. *)
  let ws = Dijkstra.workspace ~capacity:(Graph.node_count graph) () in
  (* Recovery-at-scale fixture: a 10^4-node streaming Waxman with the
     incremental SPF and the protection tables warm.  The three benches on
     it share one workload so the numbers compare directly: the full
     Dijkstra recompute, the incremental fail/restore repair, and the O(1)
     table read that answers a recovery query. *)
  let srng = Rng.create 4242 in
  let scale_n = 10_000 in
  let sgraph =
    let alpha, beta = Scale.degree_params ~n:scale_n ~target_degree:8.0 in
    (Scale.waxman srng ~n:scale_n ~alpha ~beta).Scale.graph
  in
  let sws = Dijkstra.workspace ~capacity:(Graph.node_count sgraph) () in
  let sp = Dspf.create sgraph ~source:0 in
  let fail_eid =
    let rec pick tries =
      let v = 1 + Rng.int srng (scale_n - 1) in
      let e = Dspf.parent_edge sp v in
      if e >= 0 || tries = 0 then e else pick (tries - 1)
    in
    pick 1000
  in
  let protect_eids, protect_tables =
    let smembers =
      List.sort_uniq compare (List.init 30 (fun _ -> 1 + Rng.int srng (scale_n - 1)))
    in
    let ptree = Smrp.build ~d_thresh:0.3 ~ws:sws sgraph ~source:0 ~members:smembers in
    let pp = Protect.create ptree in
    let rec take k = function e :: rest when k > 0 -> e :: take (k - 1) rest | _ -> [] in
    let eids = Array.of_list (take 64 (Tree.tree_edges ptree)) in
    Array.iter (fun e -> ignore (Protect.link_lookup pp e)) eids;
    (eids, pp)
  in
  let tests =
    [
      Test.make ~name:"waxman_generate_n100"
        (Staged.stage (fun () ->
             let rng = Rng.create 99 in
             ignore (Waxman.generate rng ~n:100 ~alpha:0.2 ~beta:0.2)));
      Test.make ~name:"dijkstra_n100"
        (Staged.stage (fun () -> ignore (Dijkstra.run ~workspace:ws graph ~source)));
      Test.make ~name:"spf_build_30_members"
        (Staged.stage (fun () -> ignore (Spf.build ~ws graph ~source ~members)));
      Test.make ~name:"smrp_build_30_members"
        (Staged.stage (fun () -> ignore (Smrp.build ~d_thresh:0.3 ~ws graph ~source ~members)));
      Test.make ~name:"smrp_candidates"
        (Staged.stage (fun () ->
             ignore (Smrp.candidates ~ws s.Scenario.smrp_tree ~joiner:victim)));
      Test.make ~name:"local_detour"
        (Staged.stage (fun () ->
             ignore (Recovery.local_detour ~ws s.Scenario.smrp_tree worst ~member:victim)));
      Test.make ~name:"global_detour"
        (Staged.stage (fun () ->
             ignore (Recovery.global_detour ~ws s.Scenario.smrp_tree worst ~member:victim)));
      Test.make ~name:"reshape_stabilize"
        (let base = Smrp.build ~d_thresh:0.3 ~ws graph ~source ~members in
         Staged.stage (fun () ->
             ignore (Reshape.stabilize ~d_thresh:0.3 ~ws (Tree.copy base))));
      Test.make ~name:"dijkstra_full_recover"
        (* What recovery costs without the incremental layer: recompute the
           whole source-rooted SPF on the 10^4-node graph. *)
        (Staged.stage (fun () -> ignore (Dijkstra.run ~workspace:sws sgraph ~source:0)));
      Test.make ~name:"dspf_fail_recover"
        (* One persistent-failure repair round: drop a tree edge, re-attach
           the orphaned subtree, then restore — two incremental updates. *)
        (Staged.stage (fun () ->
             Dspf.fail_edge sp fail_eid;
             Dspf.restore_edge sp fail_eid));
      Test.make ~name:"protect_lookup_1024"
        (* 1024 recovery-distance reads from the warm protection table;
           reported as throughput (recovery_lookups_per_sec). *)
        (Staged.stage (fun () ->
             let m = Array.length protect_eids in
             let acc = ref 0.0 in
             for i = 0 to 1023 do
               acc := !acc +. Protect.link_rd protect_tables protect_eids.(i mod m)
             done;
             ignore (Sys.opaque_identity !acc)));
      Test.make ~name:"engine_1024_events"
        (* One engine reused across runs, as a long simulation would: each
           run schedules a spread of int-coded events and drains them. *)
        (let eng = Engine.create () in
         let code = Engine.register eng (fun _ _ -> ()) in
         Staged.stage (fun () ->
             for k = 0 to 1023 do
               ignore
                 (Engine.schedule_code eng
                    ~delay:(0.001 *. float_of_int (k land 63))
                    ~code ~a:k ~b:0)
             done;
             Engine.run eng));
      Test.make ~name:"engine_1024_events_flight_off"
        (* Same workload with the flight recorder disabled: the pair gates
           recorder overhead (flight_recorder_overhead in check_core). *)
        (let eng = Engine.create ~flight:Smrp_obs.Flight.null () in
         let code = Engine.register eng (fun _ _ -> ()) in
         Staged.stage (fun () ->
             for k = 0 to 1023 do
               ignore
                 (Engine.schedule_code eng
                    ~delay:(0.001 *. float_of_int (k land 63))
                    ~code ~a:k ~b:0)
             done;
             Engine.run eng));
    ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let instance = Toolkit.Instance.monotonic_clock in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results =
    List.map
      (fun test ->
        let tbl = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"g" [ test ]) in
        Analyze.all ols instance tbl)
      tests
  in
  let rows = ref [] in
  List.iter
    (Hashtbl.iter (fun name o ->
         match Analyze.OLS.estimates o with
         | Some (ns :: _) -> rows := (name, ns) :: !rows
         | _ -> ()))
    results;
  let rows =
    List.sort compare
      (List.map
         (fun (name, ns) ->
           match String.index_opt name '/' with
           | Some i -> (String.sub name (i + 1) (String.length name - i - 1), ns)
           | None -> (name, ns))
         !rows)
  in
  (* The batch benches report as throughput: 1024 operations per run, so
     ops/s = 1024e9 / ns-per-run.  They live in their own results section
     because their regression direction is reversed (lower is worse). *)
  let micro_rows, throughput_rows =
    List.fold_left
      (fun (m, t) (name, ns) ->
        if String.equal name "engine_1024_events" then
          (m, ("engine_events_per_sec", 1024e9 /. ns) :: t)
        else if String.equal name "engine_1024_events_flight_off" then
          (m, ("engine_events_per_sec_flight_off", 1024e9 /. ns) :: t)
        else if String.equal name "protect_lookup_1024" then
          (m, ("recovery_lookups_per_sec", 1024e9 /. ns) :: t)
        else ((name, ns) :: m, t))
      ([], []) (List.rev rows)
  in
  (* The 10^5-node generation is too slow for the Bechamel quota; one
     hand-timed draw is stable enough for the relative gate (it gets a
     wider per-name tolerance in BASELINE.json). *)
  let waxman_100k_ns =
    let rng = Rng.create 4243 in
    let alpha, beta = Scale.degree_params ~n:100_000 ~target_degree:8.0 in
    let t0 = Unix.gettimeofday () in
    ignore (Scale.waxman rng ~n:100_000 ~alpha ~beta);
    (Unix.gettimeofday () -. t0) *. 1e9
  in
  (* Campaign wall clock: a fixed mini 2x2x2x2 matrix (smaller than the CLI's
     --quick preset so the gate stays cheap), hand-timed like waxman_100k and
     gated with the same widened relative tolerance. *)
  let campaign_quick_ns =
    let module Campaign = Smrp_experiments.Campaign in
    let spec =
      match
        Campaign.spec_of_matrix ~base:Campaign.quick
          "topo=waxman:60,ts; churn=flash,heavy; fail=indep,adversarial; proto=spf,smrp:0.3; \
           instances=1; seed=4244"
      with
      | Ok spec -> spec
      | Error msg -> failwith ("campaign_quick bench spec: " ^ msg)
    in
    let t0 = Unix.gettimeofday () in
    ignore (Campaign.run ~jobs:1 spec : Smrp_obs.Report.t);
    (Unix.gettimeofday () -. t0) *. 1e9
  in
  let micro_rows =
    List.sort compare
      (("waxman_100k", waxman_100k_ns)
      :: ("campaign_quick", campaign_quick_ns)
      :: micro_rows)
  in
  List.iter
    (fun (name, ns) -> Printf.printf "%-28s %12.1f ns/run  (%8.3f ms)\n" name ns (ns /. 1e6))
    micro_rows;
  List.iter
    (fun (name, per_s) -> Printf.printf "%-28s %12.3g events/s\n" name per_s)
    throughput_rows;
  (micro_rows, throughput_rows)

(* -- BENCH_RESULTS.json / BENCH_HISTORY.jsonl -------------------------- *)

let obj_of_rows rows = J.Obj (List.map (fun (n, v) -> (n, J.Num v)) rows)

let write_results ~workload:w ~micro_rows ~throughput_rows =
  let results =
    J.Obj
      [
        ("schema_version", J.Num (float_of_int Bench_support.Check_core.schema_version));
        ("harness", J.Str "smrp-bench");
        ("scenarios_per_point", J.Num (float_of_int scenarios));
        ("default_jobs", J.Num (float_of_int (Pool.default_jobs ())));
        ( "workload",
          J.Obj
            [
              ("fig9_digest", J.Str w.digest);
              ("seq_par_identical", J.Bool w.seq_par_identical);
              ("fig9_metrics", obj_of_rows w.wl_metrics);
            ] );
        ("micro_ns_per_run", obj_of_rows micro_rows);
        ("micro_throughput", obj_of_rows throughput_rows);
        ( "figures_wall_clock_s",
          J.Obj
            (List.map
               (fun (name, seq_s, par_s) ->
                 (name, J.Obj [ ("sequential", J.Num seq_s); ("parallel", J.Num par_s) ]))
               (List.rev !figure_timings)) );
      ]
  in
  let path = "BENCH_RESULTS.json" in
  let oc = open_out path in
  output_string oc (J.to_string results);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote %s\n" path;
  (* One minified line per harness run, for longitudinal tracking across
     commits (the file is append-only and not part of the gate). *)
  let history =
    J.Obj
      [
        ("ts", J.Num (Unix.gettimeofday ()));
        ("schema_version", J.Num (float_of_int Bench_support.Check_core.schema_version));
        ("fig9_digest", J.Str w.digest);
        ("micro_ns_per_run", obj_of_rows micro_rows);
        ("micro_throughput", obj_of_rows throughput_rows);
      ]
  in
  let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 "BENCH_HISTORY.jsonl" in
  output_string oc (J.to_string ~minify:true history);
  output_char oc '\n';
  close_out oc;
  Printf.printf "appended BENCH_HISTORY.jsonl\n"

let () =
  Printf.printf "SMRP reproduction benchmark harness (scenarios per point: %d; default jobs: %d)\n"
    scenarios (Pool.default_jobs ());
  figures ();
  extensions ();
  report ();
  let w = workload () in
  let micro_rows, throughput_rows = micro () in
  write_results ~workload:w ~micro_rows ~throughput_rows;
  print_newline ()
