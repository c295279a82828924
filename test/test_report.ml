(* Run reports: metrics-to-variant projection, JSON round-trips, renderer
   output, the Dashboard collector, and the parallel identity of collected
   reports. *)

module Metrics = Smrp_obs.Metrics
module Sketch = Smrp_obs.Sketch
module Series = Smrp_obs.Series
module Report = Smrp_obs.Report
module Dashboard = Smrp_experiments.Dashboard
module Scenario = Smrp_experiments.Scenario
module Reshape = Smrp_core.Reshape

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = affix || at (i + 1)) in
  at 0

(* A registry exercising every instrument kind. *)
let populated_metrics () =
  let m = Metrics.create () in
  Metrics.Counter.add (Metrics.counter m "runs") 3;
  Metrics.Gauge.set (Metrics.gauge m "queue") 5.0;
  let q = Metrics.sketch m "rd.q" in
  List.iter (Sketch.observe q) [ 1.0; 2.0; 2.0; 5.0 ];
  let s = Metrics.series m "drops" in
  Series.observe s ~ts:0.5 1.0;
  Series.observe s ~ts:3.0 2.0;
  m

let projection () =
  let v = Report.of_metrics ~name:"base" ~attrs:[ ("d", "0.30") ] (populated_metrics ()) in
  check_str "name" "base" v.Report.v_name;
  check "attrs kept" true (v.Report.v_attrs = [ ("d", "0.30") ]);
  (* Counters land in v_counts and gauges in v_values; the max gauge entry
     only appears when it differs from the last value. *)
  check "counts" true (v.Report.v_counts = [ ("runs", 3) ]);
  check "values" true (v.Report.v_values = [ ("queue", 5.0) ]);
  (match v.Report.v_dists with
  | [ ("rd.q", d) ] ->
      check_int "dist count" 4 d.Report.d_count;
      Alcotest.(check (float 0.0)) "dist sum" 10.0 d.Report.d_sum;
      Alcotest.(check (float 0.0)) "dist min" 1.0 d.Report.d_min;
      Alcotest.(check (float 0.0)) "dist max" 5.0 d.Report.d_max;
      check "p50 within bound" true
        (Float.abs (d.Report.d_p50 -. 2.0) <= (d.Report.d_rel_err *. 2.0) +. 1e-9)
  | l -> Alcotest.failf "expected one dist, got %d" (List.length l));
  match v.Report.v_series with
  | [ ("drops", view) ] ->
      check "series kind" true (view.Series.v_kind = Series.Sum);
      check "series points" true (view.Series.v_points = [ (0.0, 1.0); (3.0, 2.0) ])
  | l -> Alcotest.failf "expected one series, got %d" (List.length l)

let json_roundtrip () =
  let v = Report.of_metrics ~name:"a" (populated_metrics ()) in
  let last = Series.create ~kind:Series.Last () in
  Series.observe last ~ts:1.0 4.0;
  let m2 = Metrics.create () in
  Metrics.Counter.incr (Metrics.counter m2 "runs");
  let r =
    Report.make ~title:"t" ~meta:[ ("seed", "42") ]
      [ v; Report.of_metrics ~name:"b" m2 ]
  in
  let s = Report.to_string r in
  let r' = Report.of_string s in
  check "parse back is structurally equal" true (r = r');
  check_str "re-serialization is the identity" s (Report.to_string r');
  (* Minified and pretty forms parse to the same report. *)
  check "minified round-trip" true (Report.of_string (Report.to_string ~minify:true r) = r)

let malformed_rejected () =
  (match Report.of_string "nope" with
  | _ -> Alcotest.fail "accepted non-JSON input"
  | exception Bench_support.Bench_json.Parse_error _ -> ());
  let raises_invalid s =
    match Report.of_string s with
    | _ -> Alcotest.failf "accepted malformed report %s" s
    | exception Invalid_argument _ -> ()
  in
  raises_invalid "{}";
  raises_invalid {|{"schema_version": 99, "title": "t", "meta": {}, "variants": []}|};
  raises_invalid {|{"schema_version": 1, "title": "t", "meta": {}}|};
  (* A non-integer count is a schema violation, not a silent truncation. *)
  raises_invalid
    {|{"schema_version": 1, "title": "t", "meta": {}, "variants": [
        {"name": "v", "attrs": {}, "counts": {"runs": 1.5}, "values": {},
         "dists": {}, "series": {}}]}|}

let renderers_smoke () =
  let r =
    Report.make ~title:"smoke" ~meta:[ ("seed", "1") ]
      [ Report.of_metrics ~name:"alpha" (populated_metrics ());
        Report.of_metrics ~name:"beta" (populated_metrics ()) ]
  in
  let ascii = Report.render_ascii r in
  List.iter
    (fun affix -> check ("ascii mentions " ^ affix) true (contains ~affix ascii))
    [ "smoke"; "alpha"; "beta"; "rd.q"; "drops"; "p99" ];
  let html = Report.render_html r in
  List.iter
    (fun affix -> check ("html contains " ^ affix) true (contains ~affix html))
    [ "<!DOCTYPE html>"; "</html>"; "<svg"; "polyline"; "prefers-color-scheme"; "alpha"; "beta" ];
  (* Self-contained: no external fetches. *)
  check "no http references" false (contains ~affix:"http://" html || contains ~affix:"https://" html);
  (* Variant names are escaped on the way into markup. *)
  let evil =
    Report.make ~title:"<t>" [ Report.of_metrics ~name:"<script>x" (Metrics.create ()) ]
  in
  check "names escaped" false (contains ~affix:"<script>x" (Report.render_html evil))

let dashboard_identity_and_content () =
  let config =
    { Dashboard.quick with Dashboard.scenarios = 2; d_values = [ 0.3 ]; latency_runs = 1 }
  in
  let seq = Dashboard.run ~jobs:1 config in
  let par = Dashboard.run ~jobs:4 config in
  let s = Report.to_string seq in
  check_str "sequential and 4-domain reports byte-identical" s (Report.to_string par);
  check_str "round-trip exact" s (Report.to_string (Report.of_string s));
  check "variant order" true
    (List.map (fun v -> v.Report.v_name) seq.Report.r_variants
    = [ "spf baseline"; "smrp d=0.30"; "smrp query"; "smrp (packet sim)"; "pim (packet sim)" ]);
  (* Aligned dist names: every topology variant answers the same rows. *)
  List.iter
    (fun name ->
      let v = List.find (fun v -> v.Report.v_name = name) seq.Report.r_variants in
      check (name ^ " has rd.q") true (List.mem_assoc "rd.q" v.Report.v_dists);
      check (name ^ " has delay.q") true (List.mem_assoc "delay.q" v.Report.v_dists))
    [ "spf baseline"; "smrp d=0.30"; "smrp query" ];
  (* The packet-sim variants carry the recovery sketch and at least one
     sim-time series. *)
  let sim = List.find (fun v -> v.Report.v_name = "smrp (packet sim)") seq.Report.r_variants in
  check "recovery latency dist" true (List.mem_assoc "recovery.total.q" sim.Report.v_dists);
  check "frame-drop series" true (List.mem_assoc "net.frame_drops" sim.Report.v_series);
  check "members series" true (List.mem_assoc "proto.members_disrupted" sim.Report.v_series);
  let html = Report.render_html seq in
  check "html has sparkline" true (contains ~affix:"polyline" html)

let reshape_stabilize_metrics () =
  let sc = Scenario.run { Scenario.default with Scenario.seed = 77 } in
  let m = Metrics.create () in
  let stats = Reshape.stabilize ~metrics:m sc.Scenario.smrp_tree in
  let count name =
    match List.assoc_opt name (Metrics.snapshot m) with
    | Some (Metrics.Counter_value n) -> n
    | _ -> Alcotest.failf "counter %S missing" name
  in
  check_int "rounds counter matches stats" stats.Reshape.rounds (count "reshape.rounds");
  check_int "switches counter matches stats" stats.Reshape.switches (count "reshape.switches");
  check "every round scans the tree" true (count "reshape.scans" >= count "reshape.rounds");
  match List.assoc_opt "reshape.stabilize_s" (Metrics.snapshot m) with
  | Some (Metrics.Sketch_value s) ->
      check_int "one sweep observed" 1 s.Sketch.s_count;
      check "wall time non-negative" true (s.Sketch.s_sum >= 0.0)
  | _ -> Alcotest.fail "reshape.stabilize_s missing"

let () =
  Alcotest.run "report"
    [
      ( "model",
        [
          Alcotest.test_case "metrics projection" `Quick projection;
          Alcotest.test_case "json round-trip" `Quick json_roundtrip;
          Alcotest.test_case "malformed rejected" `Quick malformed_rejected;
          Alcotest.test_case "renderers" `Quick renderers_smoke;
        ] );
      ( "campaigns",
        [
          Alcotest.test_case "dashboard parallel identity" `Slow dashboard_identity_and_content;
          Alcotest.test_case "reshape stabilize metrics" `Quick reshape_stabilize_metrics;
        ] );
    ]
