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
module Graph = Smrp_graph.Graph
module Dijkstra = Smrp_graph.Dijkstra
module Waxman = Smrp_topology.Waxman
module Transit_stub = Smrp_topology.Transit_stub
module Tree = Smrp_core.Tree
module Session = Smrp_core.Session
module Failure = Smrp_core.Failure
module Spf = Smrp_core.Spf
module Case = Smrp_check.Case
module Gen = Smrp_check.Gen
module Shrink = Smrp_check.Shrink

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let qcheck_case t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 424242 |]) t

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

(* The distributions are read off the schedule: with a node pool that
   never runs dry a flash crowd joins exactly its geometric burst size, and
   at a horizon that truncates nothing every member leaves its drawn
   lifetime after it joined. *)
let joins events =
  List.length (List.filter (fun { Churn.op; _ } -> match op with Churn.Join _ -> true | _ -> false) events)

let lifetimes events =
  let joined = Hashtbl.create 64 in
  List.fold_left
    (fun acc { Churn.at; op } ->
      match op with
      | Churn.Join v ->
          Hashtbl.replace joined v at;
          acc
      | Churn.Leave v ->
          let life = at -. Hashtbl.find joined v in
          Hashtbl.remove joined v;
          life :: acc)
    [] events

let mean_burst_size ~seed ~crowds ~mean_size =
  let model = Churn.Flash_crowd { crowds; mean_size; spread = 0.1; mean_lifetime = 1.0 } in
  let events = Churn.schedule model (Rng.create seed) ~n:4000 ~source:0 ~horizon:1.0e6 in
  (joins events, float_of_int (joins events) /. float_of_int crowds)

let pareto_lifetimes ~seed ~arrivals ~alpha ~x_min =
  let model = Churn.Heavy_tail { arrivals; alpha; x_min } in
  lifetimes (Churn.schedule model (Rng.create seed) ~n:8000 ~source:0 ~horizon:1.0e9)

let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let flash_burst_sizes_geometric () =
  (* Mean of the geometric burst sizes tracks the configured mean. *)
  let mean_size = 6.0 in
  let n, mean = mean_burst_size ~seed:23 ~crowds:400 ~mean_size in
  check "geometric mean within 15%" true (abs_float (mean -. mean_size) < 0.15 *. mean_size);
  check "every crowd joins someone" true (n >= 400)

let heavy_tail_lifetimes_pareto () =
  (* Pareto(alpha, x_min) has mean alpha*x_min/(alpha-1) for alpha > 1. *)
  let alpha = 2.5 and x_min = 5.0 in
  let ls = pareto_lifetimes ~seed:31 ~arrivals:4000 ~alpha ~x_min in
  check_int "one lifetime per arrival" 4000 (List.length ls);
  (* Leave minus join time rounds at the join time's scale (< 1e9 s). *)
  check "lifetimes >= x_min" true (List.for_all (fun l -> l >= x_min -. 1e-6) ls);
  let expected = alpha *. x_min /. (alpha -. 1.0) in
  check "pareto mean within 15%" true (abs_float (mean ls -. expected) < 0.15 *. expected)

let sampler_moments () =
  let _, gmean = mean_burst_size ~seed:5 ~crowds:20_000 ~mean_size:4.0 in
  check "geometric sampler mean" true (abs_float (gmean -. 4.0) < 0.2);
  let pmean = mean (pareto_lifetimes ~seed:5 ~arrivals:20_000 ~alpha:3.0 ~x_min:2.0) in
  check "pareto sampler mean" true (abs_float (pmean -. 3.0) < 0.25)

let diurnal_balance () =
  (* Every wave drains exactly the cohort it admitted: joins = leaves, both
     per schedule and in the final membership count. *)
  List.iter
    (fun seed ->
      let model = Churn.Diurnal { waves = 4; wave_size = 12 } in
      let events = Churn.schedule model (Rng.create seed) ~n:70 ~source:1 ~horizon:200.0 in
      check "joins = leaves" true (2 * joins events = List.length events);
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
    (fun (name, model) ->
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
      ("indep", Failure_model.Independent { events = 2; elements = 2 });
      ("correlated", Failure_model.Correlated { events = 2; burst = 3 });
      ("regional", Failure_model.Regional { events = 2; radius = 1 });
      ("cascade", Failure_model.Cascading { events = 2; depth = 3 });
      ("adversarial", Failure_model.Adversarial { events = 2; budget = 2; passes = 1 });
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

(* The adversary scored as it was before it read N_R: members disrupted
   from [Failure.tree_connected] of the composed links, members isolated
   from a reference search with the chosen links filtered out.  The scan
   order, strict improvements and tie-breaks are the library's. *)
let reference_adversarial g ~tree ~budget ~passes =
  match List.sort compare (Tree.tree_edges tree) with
  | [] -> None
  | candidates ->
      let budget = min budget (List.length candidates) in
      let members = Tree.members tree in
      let disrupted_of links =
        let connected =
          Failure.tree_connected tree (Failure.compose (List.map (fun e -> Failure.Link e) links))
        in
        List.length (List.filter (fun m -> not connected.(m)) members)
      in
      let isolated_of links =
        let r =
          Dijkstra.run_reference
            ~edge_ok:(fun e -> not (List.mem e links))
            g ~source:(Tree.source tree)
        in
        List.length (List.filter (fun m -> not (Dijkstra.reachable r m)) members)
      in
      let chosen = ref [] in
      for _ = 1 to budget do
        let best = ref (-1) and best_d = ref (-1) in
        List.iter
          (fun e ->
            if not (List.mem e !chosen) then begin
              let d = disrupted_of (e :: !chosen) in
              if d > !best_d then begin
                best := e;
                best_d := d
              end
            end)
          candidates;
        if !best >= 0 then chosen := !chosen @ [ !best ]
      done;
      let cur_d = ref (disrupted_of !chosen) and cur_iso = ref (isolated_of !chosen) in
      for _ = 1 to passes do
        List.iteri
          (fun j _ ->
            List.iter
              (fun e ->
                if not (List.mem e !chosen) then begin
                  let alt = List.mapi (fun k x -> if k = j then e else x) !chosen in
                  let d = disrupted_of alt in
                  if d > !cur_d then begin
                    chosen := alt;
                    cur_d := d;
                    cur_iso := isolated_of alt
                  end
                  else if d = !cur_d then begin
                    let iso = isolated_of alt in
                    if iso > !cur_iso then begin
                      chosen := alt;
                      cur_iso := iso
                    end
                  end
                end)
              candidates)
          !chosen
      done;
      Some (Failure.compose (List.map (fun e -> Failure.Link e) (List.sort compare !chosen)))

(* Sessions on random Waxman and transit-stub graphs, with one to twelve
   members (a handful of members leaves whole chains of tree links behind
   one member, so chosen links nest) and, every other case, a repaired
   tree-link failure. *)
let prop_adversarial_matches_reference =
  QCheck.Test.make ~name:"adversarial draws pick what the reference scoring picks" ~count:150
    QCheck.small_nat (fun seed ->
      let rng = Rng.create seed in
      let g =
        if Rng.int rng 3 = 0 then (Transit_stub.generate rng Transit_stub.default_params).Transit_stub.graph
        else
          (Waxman.generate rng ~n:(20 + Rng.int rng 41) ~alpha:(0.15 +. Rng.float rng 0.35)
             ~beta:0.3)
            .Waxman.graph
      in
      let n = Graph.node_count g in
      let source = Rng.int rng n in
      let protocol = if Rng.int rng 2 = 0 then Session.Spf else Session.Smrp { d_thresh = 0.3 } in
      let s = Session.create g ~source ~protocol in
      for _ = 1 to 1 + Rng.int rng 12 do
        let m = Rng.int rng n in
        if m <> source && not (Tree.is_member (Session.tree s) m) then Session.join s m
      done;
      (if Rng.int rng 2 = 0 then
         match Tree.tree_edges (Session.tree s) with
         | [] -> ()
         | edges ->
             let e = List.nth edges (Rng.int rng (List.length edges)) in
             ignore (Session.fail s (Failure.Link e) : Session.repair list));
      let tree = Session.tree s in
      let budget = 1 + Rng.int rng 5 and passes = Rng.int rng 4 in
      let got =
        Failure_model.draw (Failure_model.create_ws ())
          (Failure_model.Adversarial { events = 1; budget; passes })
          rng g ~tree
      in
      got = reference_adversarial g ~tree ~budget ~passes)

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
  (* Cell seeds, as the report's per-cell "seed" attribute, depend only on
     the cell's own name, not enumeration order. *)
  let seeds protocols =
    let matrix =
      "topo=waxman:20; churn=static; fail=indep; instances=1; horizon=10; seed=9; proto="
      ^ protocols
    in
    match Campaign.spec_of_matrix matrix with
    | Error e -> Alcotest.fail e
    | Ok spec ->
        List.map
          (fun v -> (v.Report.v_name, List.assoc "seed" v.Report.v_attrs))
          (Campaign.run ~jobs:1 spec).Report.r_variants
  in
  let forward = seeds "smrp:0.3,spf" and reversed = seeds "spf,smrp:0.3" in
  check_int "distinct cells, distinct seeds" 2
    (List.length (List.sort_uniq compare (List.map snd forward)));
  check "seed survives axis reordering" true
    (List.sort compare forward = List.sort compare reversed)

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
  bad "topo=scale:1";
  bad "fail=adversarial:x";
  bad "instances=0";
  bad "figs=11";
  (* A parameter on a token that takes none was once dropped silently. *)
  List.iter bad
    [
      "fail=regional:nan";
      "fail=correlated:2";
      "fail=cascade:3";
      "topo=ts:5";
      "churn=flash:3";
      "churn=diurnal:2";
      "churn=heavy:1";
      "proto=spf:0.3";
    ];
  (* Numbers are decimal: OCaml literal syntax once built [waxman:0x10] as
     a second, differently seeded 16-node cell. *)
  List.iter
    (fun s ->
      match Campaign.spec_of_matrix s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error msg ->
          (* The number as written: what follows the last '=' or ':'. *)
          let last sep str = List.hd (List.rev (String.split_on_char sep str)) in
          let number = last ':' (last '=' s) in
          let k = String.length number in
          let named =
            List.exists
              (fun i -> String.sub msg i k = number)
              (List.init (max 0 (String.length msg - k + 1)) Fun.id)
          in
          if not named then Alcotest.failf "%S: the error %S does not name %S" s msg number)
    [
      "topo=waxman:0x10";
      "topo=locality:1_000";
      "seed=0b11";
      "seed=+5";
      "seed=0x7";
      "instances=+5";
      "instances=0o7";
      "churn=static:1_000";
      "fail=indep:0x2";
      "fail=adversarial:+3";
      "horizon=0x1p4";
      "horizon=1_0.5";
      "horizon=+10";
      "proto=smrp:0x1p-2";
      "proto=query:.";
      "proto=protected:1e";
    ];
  (* Plain decimals, fractions and exponents stay accepted. *)
  List.iter
    (fun s ->
      match Campaign.spec_of_matrix s with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "rejected %S: %s" s msg)
    [ "horizon=50"; "horizon=12.5"; "horizon=1e2"; "horizon=.5"; "proto=smrp:0.25"; "seed=-3"; "seed=0" ];
  (* Node counts share the case files' limit: a dense generator is O(N²). *)
  List.iter bad
    [ "topo=scale:999999999"; "topo=waxman:5000000"; "topo=locality:1000001"; "topo=scale:1000001" ];
  (match Campaign.spec_of_matrix "topo=scale:1000000" with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "the node limit itself rejected: %s" msg);
  (* The dense draws' degree grows with N, so they stop at 5,000 nodes and
     the error points at the fixed-degree token. *)
  List.iter
    (fun s ->
      match Campaign.spec_of_matrix s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error msg ->
          check (s ^ " names scale:N") true
            (List.exists
               (fun i -> String.sub msg i 7 = "scale:N")
               (List.init (max 0 (String.length msg - 6)) Fun.id)))
    [ "topo=waxman:5001"; "topo=locality:5001" ];
  List.iter
    (fun s ->
      match Campaign.spec_of_matrix s with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "the dense limit itself rejected: %s" msg)
    [ "topo=waxman:5000"; "topo=locality:5000" ]

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

(* The default matrix's digests at seeds 1 and 2: its 300 cells make SPF,
   SMRP and query-scheme joins, repairs and reshapes the quick matrix never
   reaches, the transit-stub cells' tied integer delays among them.  If an
   intentional change moves one, regenerate with:
     dune exec bin/smrp_cli.exe -- campaign --summary --seed S   *)
let default_digest_pins =
  [ (1, "2c06a5ab5d3749dc9bec405a59a76013"); (2, "30e2cf01d4340dcfad2ee7d5b03c646b") ]

let default_digests_pinned () =
  List.iter
    (fun (seed, pin) ->
      check_string
        (Printf.sprintf "seed %d" seed)
        pin
        (Campaign.digest (Campaign.run ~jobs:1 { Campaign.default with Campaign.seed })))
    default_digest_pins

let quick_parallel_identity () =
  let r4 = Campaign.run ~jobs:4 Campaign.quick in
  check_string "jobs=1 and jobs=4 byte-identical"
    (Report.to_string (Lazy.force quick_report))
    (Report.to_string r4)

let quick_adversarial_dominates () =
  let report = Lazy.force quick_report in
  let summary = Campaign.render_summary report in
  let prefix = "mean disrupted/failure:" in
  let line =
    List.find (String.starts_with ~prefix) (String.split_on_char '\n' summary)
  in
  let indep, adv =
    Scanf.sscanf line "mean disrupted/failure: indep %f, adversarial %f" (fun i a -> (i, a))
  in
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

(* -- Parser properties ----------------------------------------------------- *)

(* The grammar's words and punctuation, its numbers at and past every
   bound, and text it has no use for. *)
let matrix_vocabulary =
  [| "topo"; "churn"; "fail"; "proto"; "instances"; "horizon"; "seed"; "figs"; "waxman"; "ts";
     "locality"; "scale"; "static"; "flash"; "diurnal"; "heavy"; "indep"; "correlated";
     "regional"; "cascade"; "adversarial"; "spf"; "smrp"; "query"; "protected"; "smrp0.3"; "=";
     ";"; ","; ":"; " "; ""; "0"; "1"; "2"; "-1"; "0.3"; "1e-300"; "nan"; "inf"; "1e999";
     "1000000"; "1000001"; "4611686018427387903"; "99999999999999999999"; "0x10"; "1_000";
     "0b11"; "+5"; "x"; "\"" |]

(* Matrix text as tokens: maximal runs of word characters, and single
   punctuation characters. *)
let matrix_tokens s =
  let word c = not (String.contains "=;,: " c) in
  let n = String.length s in
  let rec go i acc =
    if i >= n then List.rev acc
    else begin
      let rec stop j = if j < n && word s.[j] then stop (j + 1) else j in
      let j = if word s.[i] then stop i else i + 1 in
      go j (String.sub s i (j - i) :: acc)
    end
  in
  go 0 []

(* The parser's contract: [Ok] or [Error], never an exception, and an [Ok]
   spec holds only what its interface allows. *)
let parses_to_a_sane_result text =
  match Campaign.spec_of_matrix text with
  | Error _ -> true
  | Ok spec ->
      spec.Campaign.instances > 0
      && Float.is_finite spec.Campaign.horizon
      && spec.Campaign.horizon > 0.0

let prop_matrix_random_tokens =
  QCheck.Test.make ~name:"spec_of_matrix on random token strings is Ok or Error" ~count:3000
    QCheck.(list_of_size Gen.(int_range 0 24) (int_bound (Array.length matrix_vocabulary - 1)))
    (fun picks ->
      parses_to_a_sane_result (String.concat "" (List.map (Array.get matrix_vocabulary) picks)))

let valid_matrices =
  [
    "topo=waxman:30; churn=flash,heavy; fail=adversarial:2; proto=smrp:0.2,spf; instances=2; \
     horizon=50; seed=9";
    "topo=ts,locality:40,scale:100; churn=static:5,diurnal; fail=indep:3,correlated,regional,cascade; \
     proto=query:0.3,protected:0.1";
    "proto=smrp0.3; seed=-7";
  ]

(* Every single-token mutation of a valid matrix, at each position and with
   each word of the vocabulary, and one random second mutation on top. *)
let prop_matrix_token_mutations =
  QCheck.Test.make ~name:"one- and two-token mutations of a valid matrix are Ok or Error" ~count:20
    QCheck.(pair (int_bound (List.length valid_matrices - 1)) small_nat)
    (fun (which, seed) ->
      let valid = List.nth valid_matrices which in
      Result.is_ok (Campaign.spec_of_matrix valid)
      &&
      let tokens = Array.of_list (matrix_tokens valid) in
      let rng = Rng.create seed in
      let mutate edits =
        let t = Array.copy tokens in
        List.iter (fun (k, token) -> t.(k) <- token) edits;
        String.concat "" (Array.to_list t)
      in
      Array.for_all
        (fun token ->
          Seq.for_all
            (fun k ->
              let second = (Rng.int rng (Array.length tokens), Rng.pick rng matrix_vocabulary) in
              parses_to_a_sane_result (mutate [ (k, token) ])
              && parses_to_a_sane_result (mutate [ (k, token); second ]))
            (Seq.init (Array.length tokens) Fun.id))
        matrix_vocabulary)

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
          qcheck_case prop_adversarial_matches_reference;
        ] );
      ( "scenario",
        [ Alcotest.test_case "run_many dedups" `Quick run_many_dedup ] );
      ( "matrix",
        [
          Alcotest.test_case "cells dedup and seeding" `Quick cells_dedup_and_seed;
          Alcotest.test_case "spec_of_matrix" `Quick matrix_parser;
          Alcotest.test_case "labels name the base's cells" `Quick matrix_labels_name_base_cells;
          qcheck_case prop_matrix_random_tokens;
          qcheck_case prop_matrix_token_mutations;
        ] );
      ( "quick campaign",
        [
          Alcotest.test_case "digest pinned" `Quick quick_digest_pinned;
          Alcotest.test_case "jobs byte-identity" `Quick quick_parallel_identity;
          Alcotest.test_case "adversarial dominates" `Quick quick_adversarial_dominates;
          Alcotest.test_case "report shape" `Quick quick_report_shape;
        ] );
      (* Group names stay within 14 characters: Alcotest sizes its name
         column by the longest, and a wider column truncates the QCheck
         names above to different prefixes in the test listing. *)
      ( "default matrix",
        [ Alcotest.test_case "digests pinned at seeds 1 and 2" `Quick default_digests_pinned ] );
      ( "check harness",
        [
          Alcotest.test_case "gen covers new shapes" `Quick gen_covers_new_shapes;
          Alcotest.test_case "shrink splits fail groups" `Quick shrink_splits_fail_groups;
        ] );
    ]
