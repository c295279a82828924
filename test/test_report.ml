(* Run reports: metrics-to-variant projection, JSON round-trips, renderer
   output, the Dashboard report, and its parallel identity. *)

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

(* The members a probe found decoded as empty or as 0, and a number the
   writer cannot write back, each now the documented [Invalid_argument]. *)
let ill_typed_members_rejected () =
  let report ?(meta = "{}") ?(attrs = "{}") ?(counts = "{}") ?(interval = "1")
      ?(dropped = {|, "dropped": 0|}) () =
    Printf.sprintf
      {|{"schema_version": 1, "title": "t", "meta": %s, "variants": [
          {"name": "v", "attrs": %s, "counts": %s, "values": {}, "dists": {},
           "series": {"s": {"kind": "sum", "interval": %s, "points": []%s}}}]}|}
      meta attrs counts interval dropped
  in
  check_int "the template decodes" 1 (List.length (Report.of_string (report ())).Report.r_variants);
  List.iter
    (fun (what, text) ->
      match Report.of_string text with
      | _ -> Alcotest.failf "accepted %s" what
      | exception Invalid_argument _ -> ())
    [
      ("counts 5", report ~counts:"5" ());
      ("attrs []", report ~attrs:"[]" ());
      ("meta 7", report ~meta:"7" ());
      ("a count of 1e300", report ~counts:{|{"runs": 1e300}|} ());
      ("a count of -1e19", report ~counts:{|{"runs": -1e19}|} ());
      ("dropped 1e300", report ~dropped:{|, "dropped": 1e300|} ());
      ("no dropped member", report ~dropped:"" ());
    ];
  (* JSON has no infinity: an overflowing literal is a parse error. *)
  match Report.of_string (report ~interval:"1e999" ()) with
  | _ -> Alcotest.fail "accepted an interval of 1e999"
  | exception Smrp_obs.Json.Parse_error _ -> ()

(* -- Decoder robustness ------------------------------------------------- *)

module Json = Smrp_obs.Json
module Rng = Smrp_rng.Rng

let qcheck_case t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 424242 |]) t

(* A decode either raises one of the two documented exceptions or loses
   nothing: re-encoding the report gives back the JSON it was read from,
   so no member was dropped or replaced by a default.  Any other
   exception fails the property. *)
let decodes_or_rejects text =
  match Report.of_string text with
  | r -> Json.parse (Report.to_string r) = Json.parse text
  | exception (Json.Parse_error _ | Invalid_argument _) -> true

(* A report of random instruments over a few variants. *)
let random_report seed =
  let rng = Rng.create seed in
  let variant i =
    let m = Metrics.create () in
    for c = 0 to Rng.int rng 3 do
      Metrics.Counter.add (Metrics.counter m (Printf.sprintf "c%d" c)) (Rng.int rng 1000)
    done;
    if Rng.bool rng then Metrics.Gauge.set (Metrics.gauge m "g") (Rng.float rng 100.0);
    if Rng.bool rng then begin
      let q = Metrics.sketch m "q" in
      for _ = 0 to Rng.int rng 4 do
        Sketch.observe q (Rng.float rng 10.0)
      done
    end;
    if Rng.bool rng then begin
      let sr = Metrics.series m "s" in
      for k = 0 to Rng.int rng 3 do
        Series.observe sr ~ts:(float_of_int k) (Rng.float rng 5.0)
      done
    end;
    Report.of_metrics ~name:(Printf.sprintf "v%d" i) ~attrs:[ ("k", string_of_int i) ] m
  in
  Report.make ~title:"t" ~meta:[ ("seed", string_of_int seed) ] (List.init (1 + Rng.int rng 2) variant)

(* JSON's punctuation and literals, the report's member names, and the
   values the probe found decoded as defaults. *)
let report_vocabulary =
  [| "{"; "}"; "["; "]"; ","; ":"; " "; "\""; "{}"; "[]"; "0"; "-0"; "1"; "1.5"; "5"; "7"; "1e300";
     "-1e19"; "4611686018427387904"; "true"; "null"; "\"sum\""; "\"last\""; "\"x\"";
     "\"schema_version\""; "\"title\""; "\"meta\""; "\"variants\""; "\"name\"";
     "\"attrs\""; "\"counts\""; "\"values\""; "\"dists\""; "\"series\""; "\"count\"";
     "\"kind\""; "\"interval\""; "\"points\""; "\"dropped\"" |]

let prop_report_random_tokens =
  QCheck.Test.make ~name:"Report.of_string on random token strings decodes or rejects" ~count:3000
    QCheck.(list_of_size Gen.(int_range 0 40) (int_bound (Array.length report_vocabulary - 1)))
    (fun picks ->
      decodes_or_rejects (String.concat "" (List.map (Array.get report_vocabulary) picks)))

(* Every single-token mutation of a random report, split at punctuation
   and whitespace. *)
let prop_report_token_mutations =
  QCheck.Test.make ~name:"single-token mutations of a report decode or reject" ~count:12
    QCheck.small_nat (fun seed ->
      let text = Report.to_string ~minify:(seed mod 2 = 0) (random_report seed) in
      let delim c = String.contains " \n{}[],:" c in
      let tokens =
        let n = String.length text in
        let rec go i acc =
          if i >= n then List.rev acc
          else begin
            let rec stop j = if j < n && not (delim text.[j]) then stop (j + 1) else j in
            let j = if delim text.[i] then i + 1 else stop i in
            go j (String.sub text i (j - i) :: acc)
          end
        in
        Array.of_list (go 0 [])
      in
      decodes_or_rejects text
      && Array.for_all
           (fun token ->
             Seq.for_all
               (fun k ->
                 decodes_or_rejects
                   (String.concat ""
                      (Array.to_list (Array.mapi (fun i x -> if i = k then token else x) tokens))))
               (Seq.init (Array.length tokens) Fun.id))
           report_vocabulary)

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
          Alcotest.test_case "ill-typed members rejected" `Quick ill_typed_members_rejected;
          qcheck_case prop_report_random_tokens;
          qcheck_case prop_report_token_mutations;
          Alcotest.test_case "renderers" `Quick renderers_smoke;
        ] );
      ( "campaigns",
        [
          Alcotest.test_case "dashboard parallel identity" `Slow dashboard_identity_and_content;
          Alcotest.test_case "reshape stabilize metrics" `Quick reshape_stabilize_metrics;
        ] );
    ]
