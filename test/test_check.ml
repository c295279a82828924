(* The Smrp_check fuzzing harness: oracles, shrinking, replay files and the
   fault-injection self-tests that prove the oracles catch what they claim. *)

module Graph = Smrp_graph.Graph
module Rng = Smrp_rng.Rng
module Fixtures = Smrp_topology.Fixtures
module Tree = Smrp_core.Tree
module Smrp = Smrp_core.Smrp
module Case = Smrp_check.Case
module Gen = Smrp_check.Gen
module Oracle = Smrp_check.Oracle
module Exec = Smrp_check.Exec
module Shrink = Smrp_check.Shrink
module Fuzz = Smrp_check.Fuzz
module Json = Bench_support.Bench_json

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* -- Pinned fixture ----------------------------------------------------- *)

(* The minimized repro of the skip-shr fault-injection campaign
   (`smrp fuzz --seed 42 --inject skip-shr`): one join over a 3-node line.
   Pinned so tier-1 guards the catch-and-shrink behaviour forever: the case
   must replay green against the real stack and must trip the bookkeeping
   oracles the moment a join drops one N_R update. *)
let pinned_repro =
  {
    Case.n = 3;
    edges = [ (1, 2, 0.566); (2, 0, 0.5) ];
    source = 0;
    protocol = Case.Smrp;
    d_thresh = 0.1;
    events = [ Case.Join 1 ];
  }

let pinned_repro_green () =
  match Exec.run pinned_repro with
  | Exec.Pass s -> check_int "one event applied" 1 s.Exec.applied
  | Exec.Fail v -> Alcotest.failf "pinned repro failed: %a" Exec.pp_violation v

let pinned_repro_catches_injected_bug () =
  match Exec.run ~bug:Exec.Skip_n_r_update pinned_repro with
  | Exec.Pass _ -> Alcotest.fail "oracles missed the injected N_R corruption"
  | Exec.Fail v ->
      check_int "caught at the join" 0 v.Exec.index;
      check "structural or bookkeeping oracle" true
        (v.Exec.oracle = "structure" || v.Exec.oracle = "bookkeeping")

(* -- Campaigns ----------------------------------------------------------- *)

let smoke_campaign () =
  let report = Fuzz.run { Fuzz.default with Fuzz.seed = 42; runs = 120 } in
  check "no violations on the real stack" true (report.Fuzz.failures = []);
  check "events were exercised" true (report.Fuzz.applied > 500);
  check "failures were exercised" true (report.Fuzz.repairs > 0 || report.Fuzz.lost > 0)

(* The CI smokes' counts for seed 42 at 500 runs.  "All invariants held"
   stays true when a change alters which repairs happen; these counts do
   not, so a behaviour change in the session path fails here. *)
let pinned_campaign_counts () =
  let report = Fuzz.run { Fuzz.default with Fuzz.seed = 42; runs = 500 } in
  check "no violations" true (report.Fuzz.failures = []);
  check_int "applied" 6125 report.Fuzz.applied;
  check_int "skipped" 1016 report.Fuzz.skipped;
  check_int "repairs" 212 report.Fuzz.repairs;
  check_int "lost" 833 report.Fuzz.lost;
  check_int "switches" 55 report.Fuzz.switches;
  let report = Fuzz.run { Fuzz.default with Fuzz.seed = 42; runs = 500; protection = true } in
  check "no violations under protection" true (report.Fuzz.failures = []);
  check_int "repairs under protection" 208 report.Fuzz.repairs;
  check_int "of them from the tables" 13 report.Fuzz.protected

let injected_bug_caught_and_shrunk () =
  let report =
    Fuzz.run { Fuzz.default with Fuzz.seed = 42; runs = 500; bug = Exec.Skip_n_r_update }
  in
  match report.Fuzz.failures with
  | [] -> Alcotest.fail "campaign missed the injected bug"
  | f :: _ ->
      check "shrunk to a handful of events" true (Case.event_count f.Fuzz.shrunk <= 10);
      check "shrunk below the original" true
        (Case.event_count f.Fuzz.shrunk <= Case.event_count f.Fuzz.case);
      (* The shrunk case still fails with the bug and passes without it. *)
      let failed = function Exec.Fail _ -> true | Exec.Pass _ -> false in
      check "shrunk case reproduces" true
        (failed (Exec.run ~bug:Exec.Skip_n_r_update f.Fuzz.shrunk));
      check "shrunk case is clean without the bug" false (failed (Exec.run f.Fuzz.shrunk))

let drop_member_caught_by_reshape_oracle () =
  let report =
    Fuzz.run { Fuzz.default with Fuzz.seed = 42; runs = 500; bug = Exec.Drop_member_on_reshape }
  in
  match report.Fuzz.failures with
  | [] -> Alcotest.fail "campaign missed the injected reshape bug"
  | f :: _ ->
      Alcotest.(check string)
        "membership oracle names the fault" "reshape-membership" f.Fuzz.violation.Exec.oracle;
      check "shrunk to a handful of events" true (Case.event_count f.Fuzz.shrunk <= 10)

(* -- Replay files -------------------------------------------------------- *)

let json_roundtrip () =
  let rng = Rng.create 9 in
  for _ = 1 to 20 do
    let case = Gen.case (Rng.split rng) in
    match Case.of_json (Json.parse (Json.to_string (Case.to_json case))) with
    | Ok case' -> check "roundtrip identity" true (case = case')
    | Error msg -> Alcotest.failf "roundtrip failed: %s" msg
  done

let json_rejects_bad_input () =
  let reject what j =
    match Case.of_json j with
    | Ok _ -> Alcotest.failf "%s was accepted" what
    | Error _ -> ()
  in
  reject "wrong format tag" (Json.Obj [ ("format", Json.Str "nope") ]);
  let base = Case.to_json pinned_repro in
  let patch path v =
    let rec go path j =
      match (path, j) with
      | [ k ], Json.Obj ms -> Json.Obj (List.map (fun (k', v') -> if k' = k then (k', v) else (k', v')) ms)
      | k :: rest, Json.Obj ms ->
          Json.Obj (List.map (fun (k', v') -> if k' = k then (k', go rest v') else (k', v')) ms)
      | _ -> j
    in
    go path base
  in
  reject "out-of-range source" (patch [ "topology"; "source" ] (Json.Num 99.0));
  reject "self-loop edge"
    (patch [ "topology"; "edges" ]
       (Json.List [ Json.List [ Json.Num 1.0; Json.Num 1.0; Json.Num 1.0 ] ]));
  reject "out-of-range fail link"
    (patch [ "events" ]
       (Json.List
          [ Json.Obj [ ("op", Json.Str "fail"); ("links", Json.List [ Json.Num 7.0 ]);
                       ("nodes", Json.List []) ] ]));
  reject "negative delay"
    (patch [ "topology"; "edges" ]
       (Json.List [ Json.List [ Json.Num 0.0; Json.Num 1.0; Json.Num (-1.0) ] ]));
  (* Accepted once, though replay then raised (the node counts) or ran on
     infinities, which a decoded value may still hold though the parser
     reads no JSON number as one. *)
  reject "1e18 nodes" (patch [ "topology"; "nodes" ] (Json.parse "1e18"));
  reject "2^40 nodes" (patch [ "topology"; "nodes" ] (Json.parse "1099511627776"));
  reject "infinite delay"
    (patch [ "topology"; "edges" ]
       (Json.List [ Json.List [ Json.Num 0.0; Json.Num 1.0; Json.Num infinity ] ]));
  reject "infinite d_thresh" (patch [ "protocol"; "d_thresh" ] (Json.Num infinity));
  check "generated cases stay under the node limit" true
    (Gen.default.Gen.max_nodes <= Graph.node_limit)

(* JSON text as tokens: string literals, runs of number or literal
   characters, and single punctuation characters; whitespace dropped. *)
let json_tokens s =
  let n = String.length s in
  let delim c = String.contains " \n\t\r\"{}[],:" c in
  let rec go i acc =
    if i >= n then List.rev acc
    else if String.contains " \n\t\r" s.[i] then go (i + 1) acc
    else begin
      let j =
        if s.[i] = '"' then
          match String.index_from_opt s (i + 1) '"' with Some j -> j + 1 | None -> n
        else if delim s.[i] then i + 1
        else
          let rec stop j = if j < n && not (delim s.[j]) then stop (j + 1) else j in
          stop i
      in
      go j (String.sub s i (j - i) :: acc)
    end
  in
  go 0 []

let replacement_tokens =
  [ ""; "0"; "-1"; "1.5"; "1e18"; "1099511627776"; "1e999"; "-1e999"; "4611686018427387903";
    "null"; "true"; "\"x\""; "[]"; "{}"; ","; "]"; "}"; "\"fail\"" ]

(* The parser contract: every single-token mutation of a valid case — each
   position, each replacement — is [Ok] or [Error], never an exception, and
   whatever is [Ok] is replayable: a node count within the limit, finite
   positive delays, a finite [d_thresh]. *)
let prop_token_mutations =
  QCheck.Test.make ~name:"single-token mutations of a case parse to Ok or Error" ~count:12
    QCheck.small_nat (fun seed ->
      let params = { Gen.default with Gen.max_nodes = 10; max_events = 6 } in
      let case = Gen.case ~params (Rng.create seed) in
      let tokens = Array.of_list (json_tokens (Json.to_string (Case.to_json case))) in
      let parses_replayable k token =
        let text =
          String.concat " "
            (Array.to_list (Array.mapi (fun i x -> if i = k then token else x) tokens))
        in
        match Json.parse text with
        | exception Json.Parse_error _ -> true
        | j -> (
            match Case.of_json j with
            | Error _ -> true
            | Ok c ->
                c.Case.n <= Graph.node_limit
                && List.for_all (fun (_, _, d) -> Float.is_finite d && d > 0.0) c.Case.edges
                && Float.is_finite c.Case.d_thresh)
      in
      List.for_all
        (fun token ->
          Seq.for_all (fun k -> parses_replayable k token) (Seq.init (Array.length tokens) Fun.id))
        replacement_tokens)

let qcheck_case t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 424242 |]) t

let save_load_roundtrip () =
  let file = Filename.temp_file "smrp-fuzz" ".json" in
  Case.save file pinned_repro;
  (match Case.load file with
  | Ok case -> check "load equals save" true (case = pinned_repro)
  | Error msg -> Alcotest.failf "load failed: %s" msg);
  Sys.remove file

(* -- Determinism --------------------------------------------------------- *)

let generation_deterministic () =
  let draw () = Gen.case (Rng.create 77) in
  check "same seed, same case" true (draw () = draw ())

let execution_deterministic () =
  let rng = Rng.create 5 in
  for _ = 1 to 10 do
    let case = Gen.case (Rng.split rng) in
    check "same case, same outcome" true (Exec.run case = Exec.run case)
  done

(* -- Oracle internals ---------------------------------------------------- *)

let recomputation_matches_incremental () =
  let f = Fixtures.fig4 () in
  let t = Tree.create f.Fixtures.graph ~source:f.Fixtures.s in
  Smrp.join ~d_thresh:0.3 t f.Fixtures.e;
  Smrp.join ~d_thresh:0.3 t f.Fixtures.g;
  Smrp.join ~d_thresh:0.3 t f.Fixtures.f;
  let n_r = Oracle.recompute_n_r t in
  let shr = Oracle.recompute_shr t in
  List.iter
    (fun v ->
      check_int "N_R agrees" (Tree.subtree_members t v) n_r.(v);
      check_int "SHR agrees" (Tree.shr t v) shr.(v))
    (Tree.on_tree_nodes t)

let naive_candidates_match_production () =
  (* The naive reference enumeration and selection must make the join
     decision Smrp.attach_path makes on the paper's Figure 4 walkthrough —
     same merge point, same path — at the bound that keeps F on D and at
     the one that frees it to take B. *)
  let f = Fixtures.fig4 () in
  let t = Tree.create f.Fixtures.graph ~source:f.Fixtures.s in
  Smrp.join ~d_thresh:0.3 t f.Fixtures.e;
  Smrp.join ~d_thresh:0.3 t f.Fixtures.g;
  let spf_distance = Option.get (Smrp.spf_distance t f.Fixtures.f) in
  let naive = Oracle.naive_candidates t ~joiner:f.Fixtures.f in
  List.iter
    (fun (d_thresh, expect) ->
      let o = Option.get (Oracle.naive_select ~d_thresh ~spf_distance naive) in
      check_int "expected merge" expect o.Oracle.merge;
      let nodes, edges = Smrp.attach_path ~d_thresh t f.Fixtures.f ~spf:(Smrp.source_spf t) in
      Alcotest.(check (list int)) "same path nodes" o.Oracle.attach_nodes nodes;
      Alcotest.(check (list int)) "same path edges" o.Oracle.attach_edges edges)
    [ (0.3, f.Fixtures.d); (1.0, f.Fixtures.b) ]

let bookkeeping_oracle_detects_corruption () =
  let f = Fixtures.fig4 () in
  let t = Tree.create f.Fixtures.graph ~source:f.Fixtures.s in
  Smrp.join ~d_thresh:0.3 t f.Fixtures.e;
  check "clean tree passes" true (Oracle.bookkeeping t = None);
  Tree.unsafe_tweak_subtree_members t f.Fixtures.e (-1);
  check "corrupted N_R detected" true (Oracle.bookkeeping t <> None)

(* -- Shrinker ------------------------------------------------------------ *)

let shrinker_drops_irrelevant_events () =
  (* Predicate: the case fails whenever node 1 ever joins (a stand-in for a
     bug triggered by one event).  The shrinker must strip everything else. *)
  let case =
    {
      Case.n = 6;
      edges = List.init 6 (fun i -> (i, (i + 1) mod 6, 1.0));
      source = 0;
      protocol = Case.Smrp;
      d_thresh = 0.3;
      events =
        [
          Case.Join 2;
          Case.Reshape;
          Case.Join 1;
          Case.Leave 2;
          Case.Fail { links = [ 0 ]; nodes = [] };
          Case.Reshape;
        ];
    }
  in
  let fails c = List.exists (fun e -> e = Case.Join 1) c.Case.events in
  let shrunk = Shrink.shrink ~fails case in
  check "only the triggering event remains" true (shrunk.Case.events = [ Case.Join 1 ]);
  check "unreferenced topology compacted" true (shrunk.Case.n < case.Case.n)

let shrinker_keeps_non_failing_cases () =
  let case = pinned_repro in
  check "non-failing input returned unchanged" true
    (Shrink.shrink ~fails:(fun _ -> false) case = case)

let () =
  Alcotest.run "check"
    [
      ( "pinned_repro",
        [
          Alcotest.test_case "replays green on the real stack" `Quick pinned_repro_green;
          Alcotest.test_case "catches the injected N_R corruption" `Quick
            pinned_repro_catches_injected_bug;
        ] );
      ( "campaigns",
        [
          Alcotest.test_case "smoke campaign holds all invariants" `Quick smoke_campaign;
          Alcotest.test_case "seed-42 campaign counts are pinned" `Quick pinned_campaign_counts;
          Alcotest.test_case "skip-shr injection is caught and shrunk" `Quick
            injected_bug_caught_and_shrunk;
          Alcotest.test_case "drop-member injection names the reshape oracle" `Quick
            drop_member_caught_by_reshape_oracle;
        ] );
      ( "replay_files",
        [
          Alcotest.test_case "json roundtrip" `Quick json_roundtrip;
          Alcotest.test_case "malformed repros rejected" `Quick json_rejects_bad_input;
          qcheck_case prop_token_mutations;
          Alcotest.test_case "save/load roundtrip" `Quick save_load_roundtrip;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "generation" `Quick generation_deterministic;
          Alcotest.test_case "execution" `Quick execution_deterministic;
        ] );
      ( "oracles",
        [
          Alcotest.test_case "recomputation matches incremental state" `Quick
            recomputation_matches_incremental;
          Alcotest.test_case "naive candidates match production" `Quick
            naive_candidates_match_production;
          Alcotest.test_case "bookkeeping oracle detects corruption" `Quick
            bookkeeping_oracle_detects_corruption;
        ] );
      ( "shrinker",
        [
          Alcotest.test_case "drops irrelevant events and topology" `Quick
            shrinker_drops_irrelevant_events;
          Alcotest.test_case "returns non-failing cases unchanged" `Quick
            shrinker_keeps_non_failing_cases;
        ] );
    ]
