(* Campaign DSL: churn-model distribution properties, failure-model
   behaviour, matrix enumeration/seeding, parallel byte-identity, and the
   pinned quick-matrix digest. *)

module Rng = Smrp_rng.Rng
module Churn = Smrp_experiments.Churn
module Failure_model = Smrp_experiments.Failure_model
module Campaign = Smrp_experiments.Campaign
module Scenario = Smrp_experiments.Scenario
module Metrics = Smrp_obs.Metrics
module Report = Smrp_obs.Report
module Waxman = Smrp_topology.Waxman
module Tree = Smrp_core.Tree
module Failure = Smrp_core.Failure
module Spf = Smrp_core.Spf
module Case = Smrp_check.Case
module Gen = Smrp_check.Gen
module Shrink = Smrp_check.Shrink

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* -- Churn models -------------------------------------------------------- *)

let models =
  [
    ("static", Churn.Static { group_size = 20 });
    ( "flash",
      Churn.Flash_crowd { crowds = 5; mean_size = 6.0; spread = 2.0; mean_lifetime = 25.0 } );
    ("diurnal", Churn.Diurnal { waves = 3; wave_size = 9 });
    ("heavy", Churn.Heavy_tail { arrivals = 30; alpha = 2.5; x_min = 5.0 });
  ]

let churn_deterministic () =
  List.iter
    (fun (name, model) ->
      let s1 = Churn.schedule model (Rng.create 7) ~n:80 ~source:3 ~horizon:100.0 in
      let s2 = Churn.schedule model (Rng.create 7) ~n:80 ~source:3 ~horizon:100.0 in
      check (name ^ " same schedule") true (s1 = s2);
      let s3 = Churn.schedule model (Rng.create 8) ~n:80 ~source:3 ~horizon:100.0 in
      check (name ^ " seed matters") true (name = "static" || s1 <> s3))
    models

let churn_sorted_and_well_formed () =
  List.iter
    (fun (name, model) ->
      let events = Churn.schedule model (Rng.create 11) ~n:60 ~source:0 ~horizon:100.0 in
      let rec sorted = function
        | { Churn.at = a; _ } :: ({ Churn.at = b; _ } :: _ as rest) ->
            a <= b && sorted rest
        | _ -> true
      in
      check (name ^ " sorted by time") true (sorted events);
      check
        (name ^ " never touches the source")
        true
        (List.for_all
           (fun { Churn.op; _ } ->
             match op with Churn.Join v | Churn.Leave v -> v <> 0)
           events);
      (* A member joins before it leaves, and never joins twice while in. *)
      let joined = Hashtbl.create 16 in
      let ok = ref true in
      List.iter
        (fun { Churn.op; _ } ->
          match op with
          | Churn.Join v ->
              if Hashtbl.mem joined v then ok := false else Hashtbl.replace joined v ()
          | Churn.Leave v ->
              if Hashtbl.mem joined v then Hashtbl.remove joined v else ok := false)
        events;
      check (name ^ " join/leave pairing") true !ok)
    models

let flash_burst_sizes_geometric () =
  (* Mean of the raw geometric draws tracks the configured mean. *)
  let mean_size = 6.0 in
  let model =
    Churn.Flash_crowd { crowds = 400; mean_size; spread = 0.1; mean_lifetime = 1.0 }
  in
  let _, stats =
    Churn.schedule_with_stats model (Rng.create 23) ~n:4000 ~source:0 ~horizon:10_000.0
  in
  check_int "one draw per crowd" 400 (List.length stats.Churn.burst_sizes);
  let sum = List.fold_left (fun a s -> a + s) 0 stats.Churn.burst_sizes in
  let mean = float_of_int sum /. 400.0 in
  check "geometric mean within 15%" true (abs_float (mean -. mean_size) < 0.15 *. mean_size);
  check "all draws positive" true (List.for_all (fun s -> s >= 1) stats.Churn.burst_sizes)

let heavy_tail_lifetimes_pareto () =
  (* Pareto(alpha, x_min) has mean alpha*x_min/(alpha-1) for alpha > 1. *)
  let alpha = 2.5 and x_min = 5.0 in
  let model = Churn.Heavy_tail { arrivals = 4000; alpha; x_min } in
  let _, stats =
    Churn.schedule_with_stats model (Rng.create 31) ~n:8000 ~source:0 ~horizon:1.0e9
  in
  check_int "one lifetime per arrival" 4000 (List.length stats.Churn.lifetimes);
  check "lifetimes >= x_min" true (List.for_all (fun l -> l >= x_min) stats.Churn.lifetimes);
  let sum = List.fold_left ( +. ) 0.0 stats.Churn.lifetimes in
  let mean = sum /. 4000.0 in
  let expected = alpha *. x_min /. (alpha -. 1.0) in
  check "pareto mean within 15%" true (abs_float (mean -. expected) < 0.15 *. expected)

let sampler_moments () =
  let rng = Rng.create 5 in
  let n = 20_000 in
  let gsum = ref 0 in
  for _ = 1 to n do
    gsum := !gsum + Churn.geometric rng ~mean:4.0
  done;
  let gmean = float_of_int !gsum /. float_of_int n in
  check "geometric sampler mean" true (abs_float (gmean -. 4.0) < 0.2);
  let psum = ref 0.0 in
  for _ = 1 to n do
    psum := !psum +. Churn.pareto rng ~alpha:3.0 ~x_min:2.0
  done;
  let pmean = !psum /. float_of_int n in
  check "pareto sampler mean" true (abs_float (pmean -. 3.0) < 0.25)

let diurnal_balance () =
  (* Every wave drains exactly the cohort it admitted: joins = leaves, both
     per schedule and in the final membership count. *)
  List.iter
    (fun seed ->
      let model = Churn.Diurnal { waves = 4; wave_size = 12 } in
      let events, stats =
        Churn.schedule_with_stats model (Rng.create seed) ~n:70 ~source:1 ~horizon:200.0
      in
      check "joins = leaves" true (stats.Churn.joins = stats.Churn.leaves);
      let net =
        List.fold_left
          (fun acc { Churn.op; _ } ->
            match op with Churn.Join _ -> acc + 1 | Churn.Leave _ -> acc - 1)
          0 events
      in
      check_int "net membership zero" 0 net)
    [ 1; 2; 3; 17 ]

(* -- Failure models ------------------------------------------------------ *)

let tree_of_waxman seed =
  let w = Waxman.generate ~link_delay:`Unit (Rng.create seed) ~n:40 ~alpha:0.3 ~beta:0.3 in
  let g = w.Waxman.graph in
  let members = List.init 12 (fun i -> 3 * (i + 1) mod 40) in
  let members = List.sort_uniq compare (List.filter (fun v -> v <> 0) members) in
  let tree = Spf.build g ~source:0 ~members in
  (g, tree)

let failure_models_deterministic_and_sane () =
  let g, tree = tree_of_waxman 3 in
  List.iter
    (fun model ->
      let name = Failure_model.name model in
      let draw seed =
        let ws = Failure_model.create_ws () in
        Failure_model.draw ws model (Rng.create seed) g ~tree
      in
      let f1 = draw 9 and f2 = draw 9 in
      check (name ^ " deterministic") true (f1 = f2);
      match f1 with
      | None -> Alcotest.failf "%s drew nothing" name
      | Some f ->
          check (name ^ " never kills the source") true (Failure.node_ok f 0);
          check
            (name ^ " disrupted bounded by members")
            true
            (Failure_model.disrupted tree f <= Tree.member_count tree))
    [
      Failure_model.Independent { events = 2; elements = 2 };
      Failure_model.Correlated { events = 2; burst = 3 };
      Failure_model.Regional { events = 2; radius = 1 };
      Failure_model.Cascading { events = 2; depth = 3 };
      Failure_model.Adversarial { events = 2; budget = 2; passes = 1 };
    ]

let adversarial_beats_random () =
  (* The greedy worst-case placement must disrupt at least as many members
     as a random draw of the same budget — on every topology tried. *)
  List.iter
    (fun seed ->
      let g, tree = tree_of_waxman seed in
      let ws = Failure_model.create_ws () in
      let adv =
        match
          Failure_model.draw ws
            (Failure_model.Adversarial { events = 1; budget = 2; passes = 1 })
            (Rng.create 1) g ~tree
        with
        | Some f -> Failure_model.disrupted tree f
        | None -> Alcotest.fail "no adversarial draw"
      in
      let rnd =
        match
          Failure_model.draw ws
            (Failure_model.Independent { events = 1; elements = 2 })
            (Rng.create 1) g ~tree
        with
        | Some f -> Failure_model.disrupted tree f
        | None -> 0
      in
      check "adversarial >= random same budget" true (adv >= rnd);
      check "adversarial disrupts someone" true (adv >= 1))
    [ 3; 4; 5; 6 ]

(* -- Scenario.run_many dedup --------------------------------------------- *)

let run_many_dedup () =
  let base = { Scenario.default with Scenario.seed = 5; n = 40; group_size = 8 } in
  let other = { base with Scenario.seed = 6 } in
  let configs = [ base; other; base; base; other ] in
  let results = Scenario.run_many ~jobs:2 configs in
  check_int "one result per occurrence" 5 (List.length results);
  let direct = List.map Scenario.run configs in
  check "same results as the plain map" true
    (List.for_all2
       (fun a b -> Scenario.aggregates a = Scenario.aggregates b && a.Scenario.members = b.Scenario.members)
       results direct);
  (* Shared results are physically shared: the duplicate config was
     evaluated once. *)
  check "duplicates share one evaluation" true
    (List.nth results 0 == List.nth results 2);
  (* Metric totals count occurrences, not unique configs. *)
  let m = Metrics.create () in
  ignore (Scenario.run_many ~jobs:2 ~metrics:m configs : Scenario.t list);
  let runs =
    match List.assoc "scenario.runs" (Metrics.snapshot m) with
    | Metrics.Counter_value c -> c
    | _ -> -1
  in
  check_int "metrics per occurrence" 5 runs

(* -- Matrix enumeration and seeding -------------------------------------- *)

let cells_dedup_and_seed () =
  let spec =
    {
      Campaign.quick with
      Campaign.topologies =
        Campaign.quick.Campaign.topologies @ [ List.hd Campaign.quick.Campaign.topologies ];
    }
  in
  (* The repeated topology axis value collapses: same cell count as quick. *)
  check_int "dedup collapses repeated axis values"
    (List.length (Campaign.cells Campaign.quick))
    (List.length (Campaign.cells spec));
  let cells = Campaign.cells Campaign.quick in
  check_int "quick matrix is 3x3x2x3" 54 (List.length cells);
  (* Cell seeds depend only on the cell's own name, not enumeration order. *)
  let c0 = List.hd cells and c1 = List.nth cells 1 in
  check "distinct cells, distinct seeds" true
    (Campaign.cell_seed Campaign.quick c0 <> Campaign.cell_seed Campaign.quick c1);
  let reversed = { Campaign.quick with Campaign.protocols = List.rev Campaign.quick.Campaign.protocols } in
  let find name cs = List.find (fun c -> c.Campaign.c_name = name) cs in
  let name = c0.Campaign.c_name in
  check "seed survives axis reordering" true
    (Campaign.cell_seed Campaign.quick (find name cells)
    = Campaign.cell_seed reversed (find name (Campaign.cells reversed)))

let matrix_parser () =
  (match Campaign.spec_of_matrix "topo=waxman:30; churn=flash,heavy; fail=adversarial:2; proto=smrp:0.2,spf; instances=2; horizon=50; seed=9" with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok spec ->
      check_int "one topology" 1 (List.length spec.Campaign.topologies);
      check_string "label drops the colon" "waxman30" (fst (List.hd spec.Campaign.topologies));
      check_int "two churns" 2 (List.length spec.Campaign.churns);
      check_int "two protocols" 2 (List.length spec.Campaign.protocols);
      check_int "instances" 2 spec.Campaign.instances;
      check "horizon" true (spec.Campaign.horizon = 50.0);
      check_int "seed" 9 spec.Campaign.seed;
      check_int "cells" 4 (List.length (Campaign.cells spec)));
  (* The paper's figures are not matrix cells: [figs] is an unknown axis. *)
  (match Campaign.spec_of_matrix "figs=7,10" with
  | Error msg ->
      check "figs is an unknown axis" true (String.starts_with ~prefix:"unknown axis" msg)
  | Ok _ -> Alcotest.fail "accepted figs=7,10");
  let bad s =
    match Campaign.spec_of_matrix s with Ok _ -> Alcotest.failf "accepted %S" s | Error _ -> ()
  in
  bad "nonsense";
  bad "topo=hypercube";
  bad "fail=adversarial:x";
  bad "instances=0";
  bad "figs=11"

let matrix_labels_name_base_cells () =
  (* Every label of a base spec's axis, written as a bare token, names the
     base's own cell — [fail=indep] is 6 events under [default], 4 under
     [quick], not the grammar's stock [indep]. *)
  List.iter
    (fun (base_name, base) ->
      let axis name cells get =
        List.iter
          (fun (label, value) ->
            match Campaign.spec_of_matrix ~base (name ^ "=" ^ label) with
            | Error msg -> Alcotest.failf "%s: %s=%s rejected: %s" base_name name label msg
            | Ok spec ->
                check (Printf.sprintf "%s: %s=%s is the base cell" base_name name label) true
                  (get spec = [ (label, value) ]))
          cells
      in
      axis "topo" base.Campaign.topologies (fun s -> s.Campaign.topologies);
      axis "churn" base.Campaign.churns (fun s -> s.Campaign.churns);
      axis "fail" base.Campaign.failures (fun s -> s.Campaign.failures);
      axis "proto" base.Campaign.protocols (fun s -> s.Campaign.protocols))
    [ ("default", Campaign.default); ("quick", Campaign.quick) ];
  let rejected s =
    match Campaign.spec_of_matrix s with
    | Ok _ -> Alcotest.failf "accepted %S" s
    | Error _ -> ()
  in
  rejected "horizon=inf";
  rejected "proto=smrp:nan";
  rejected "proto=query:inf"

(* -- The pinned quick campaign ------------------------------------------- *)

(* One quick run shared across the pinning assertions (it is the expensive
   part of this file). *)
let quick_report = lazy (Campaign.run ~jobs:1 Campaign.quick)

(* The golden digest of the quick matrix: byte-pins cell enumeration order,
   per-cell seeding, every churn/failure draw, and the report encoding.
   If an intentional change moves it, regenerate with:
     dune exec bin/smrp_cli.exe -- campaign --quick --summary   *)
let quick_digest_pin = "ae2cb304a9780ba9256acbc9022bd641"

let quick_digest_pinned () =
  check_string "pinned digest" quick_digest_pin (Campaign.digest (Lazy.force quick_report))

let quick_parallel_identity () =
  let r4 = Campaign.run ~jobs:4 Campaign.quick in
  check_string "jobs=1 and jobs=4 byte-identical"
    (Report.to_string (Lazy.force quick_report))
    (Report.to_string r4)

let quick_adversarial_dominates () =
  let report = Lazy.force quick_report in
  let indep = Campaign.mean_disrupted report ~failure:"indep" in
  let adv = Campaign.mean_disrupted report ~failure:"adversarial" in
  check "independent failures disrupt someone" true (indep > 0.0);
  check "adversarial >= 2x independent" true (adv >= 2.0 *. indep)

let quick_report_shape () =
  let report = Lazy.force quick_report in
  check_int "54 variants" 54 (List.length report.Report.r_variants);
  check "summary renders" true (String.length (Campaign.render_summary report) > 100);
  check "html renders" true (String.length (Report.render_html report) > 1000);
  (* Round-trip through JSON. *)
  let r2 = Report.of_string (Report.to_string report) in
  check_string "round-trips" (Campaign.digest report) (Campaign.digest r2)

(* -- Generator and shrinker over the new failure shapes ------------------- *)

let gen_covers_new_shapes () =
  let seen_ball = ref false and seen_chain = ref false in
  for seed = 0 to 199 do
    let case = Gen.case (Rng.create seed) in
    let case' = Gen.case (Rng.create seed) in
    if seed < 20 then check "gen deterministic" true (case = case');
    List.iter
      (fun ev ->
        match ev with
        | Case.Fail { links; nodes } ->
            if List.length nodes >= 3 then seen_ball := true;
            if List.length links >= 2 then seen_chain := true
        | _ -> ())
      case.Case.events
  done;
  check "regional balls generated" true !seen_ball;
  check "link chains generated" true !seen_chain

let shrink_splits_fail_groups () =
  (* A regional-style node group shrinks to the single element the
     predicate cares about; a chain of links likewise. *)
  let case =
    {
      Case.n = 8;
      edges = [ (0, 1, 1.0); (1, 2, 1.0); (2, 3, 1.0); (3, 4, 1.0); (4, 5, 1.0) ];
      source = 0;
      protocol = Case.Smrp;
      d_thresh = 0.3;
      events =
        [
          Case.Join 5;
          Case.Fail { links = []; nodes = [ 1; 2; 3; 4; 6; 7 ] };
          Case.Fail { links = [ 0; 1; 2; 3 ]; nodes = [] };
        ];
    }
  in
  let mentions_node v case =
    List.exists
      (function Case.Fail { nodes; _ } -> List.mem v nodes | _ -> false)
      case.Case.events
  in
  let mentions_link l case =
    List.exists
      (function Case.Fail { links; _ } -> List.mem l links | _ -> false)
      case.Case.events
  in
  let shrunk = Shrink.shrink ~fails:(mentions_node 3) case in
  let node_groups =
    List.filter_map
      (function Case.Fail { nodes; _ } when nodes <> [] -> Some nodes | _ -> None)
      shrunk.Case.events
  in
  check "node group split to the one culprit" true (List.mem [ 3 ] node_groups);
  let shrunk = Shrink.shrink ~fails:(mentions_link 2) case in
  let link_groups =
    List.filter_map
      (function Case.Fail { links; _ } when links <> [] -> Some links | _ -> None)
      shrunk.Case.events
  in
  check "link chain split to the one culprit" true
    (List.exists (fun l -> List.length l = 1) link_groups)

let () =
  Alcotest.run "campaign"
    [
      ( "churn",
        [
          Alcotest.test_case "deterministic" `Quick churn_deterministic;
          Alcotest.test_case "sorted and well-formed" `Quick churn_sorted_and_well_formed;
          Alcotest.test_case "flash burst sizes geometric" `Quick flash_burst_sizes_geometric;
          Alcotest.test_case "heavy-tail lifetimes pareto" `Quick heavy_tail_lifetimes_pareto;
          Alcotest.test_case "sampler moments" `Quick sampler_moments;
          Alcotest.test_case "diurnal join/leave balance" `Quick diurnal_balance;
        ] );
      ( "failure models",
        [
          Alcotest.test_case "deterministic and sane" `Quick failure_models_deterministic_and_sane;
          Alcotest.test_case "adversarial beats random" `Quick adversarial_beats_random;
        ] );
      ( "scenario",
        [ Alcotest.test_case "run_many dedups" `Quick run_many_dedup ] );
      ( "matrix",
        [
          Alcotest.test_case "cells dedup and seeding" `Quick cells_dedup_and_seed;
          Alcotest.test_case "spec_of_matrix" `Quick matrix_parser;
          Alcotest.test_case "labels name the base's cells" `Quick matrix_labels_name_base_cells;
        ] );
      ( "quick campaign",
        [
          Alcotest.test_case "digest pinned" `Quick quick_digest_pinned;
          Alcotest.test_case "jobs byte-identity" `Quick quick_parallel_identity;
          Alcotest.test_case "adversarial dominates" `Quick quick_adversarial_dominates;
          Alcotest.test_case "report shape" `Quick quick_report_shape;
        ] );
      ( "check harness",
        [
          Alcotest.test_case "gen covers new shapes" `Quick gen_covers_new_shapes;
          Alcotest.test_case "shrink splits fail groups" `Quick shrink_splits_fail_groups;
        ] );
    ]
