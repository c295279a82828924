(* Bench regression gate: the hand-rolled JSON layer and the baseline
   comparison logic (bench/check.exe drives these from the CLI). *)

module J = Bench_support.Bench_json
module Check = Bench_support.Check_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* -- JSON --------------------------------------------------------------- *)

let json_roundtrip () =
  let v =
    J.Obj
      [
        ("schema_version", J.Num 2.0);
        ("name", J.Str "bench \"quoted\"\nline");
        ("flag", J.Bool true);
        ("nothing", J.Null);
        ("list", J.List [ J.Num 1.5; J.Num (-3.0); J.Str "x"; J.Obj [] ]);
        ("nested", J.Obj [ ("pi", J.Num 3.141592653589793); ("neg", J.Num (-0.001)) ]);
      ]
  in
  check "pretty roundtrips" true (J.parse (J.to_string v) = v);
  check "minified roundtrips" true (J.parse (J.to_string ~minify:true v) = v);
  check "minified is one line" true (not (String.contains (J.to_string ~minify:true v) '\n'));
  check "whitespace tolerated" true (J.parse " { \"a\" : [ 1 , 2 ] } " = J.Obj [ ("a", J.List [ J.Num 1.0; J.Num 2.0 ]) ]);
  check "unicode escape" true (J.parse "\"\\u0041\\u00e9\"" = J.Str "A\xc3\xa9")

let json_rejects_malformed () =
  let rejects s =
    match J.parse s with
    | exception J.Parse_error _ -> true
    | _ -> false
  in
  List.iter
    (fun s -> check (Printf.sprintf "rejects %S" s) true (rejects s))
    [ "{"; "[1,]"; "{\"a\":}"; "tru"; "1.2.3"; "\"unterminated"; "{} trailing" ];
  (* Numbers follow JSON's grammar, and none overflows to an infinity. *)
  List.iter
    (fun s -> check (Printf.sprintf "rejects %S" s) true (rejects s))
    [ "01"; "[-01]"; "5."; "[5.]"; ".5"; "+5"; "-"; "1e"; "1e+"; "0x10"; "1e999"; "-1e999" ];
  List.iter
    (fun (s, f) -> check (Printf.sprintf "reads %S" s) true (J.parse s = J.Num f))
    [
      ("0", 0.0); ("-0.5", -0.5); ("1e+20", 1e20); ("1E-3", 1e-3); ("12.5e3", 12500.0);
      ("1e-999", 0.0);
    ]

let json_accessors () =
  let v = J.parse {|{"a": {"b": 7}, "s": "x", "t": true}|} in
  check "mem_path hit" true (J.mem_path [ "a"; "b" ] v = Some (J.Num 7.0));
  check "mem_path miss" true (J.mem_path [ "a"; "z" ] v = None);
  check "to_num" true (Option.bind (J.mem_path [ "a"; "b" ] v) J.to_num = Some 7.0);
  check "to_str" true (Option.bind (J.member "s" v) J.to_str = Some "x");
  check "to_bool" true (Option.bind (J.member "t" v) J.to_bool = Some true)

(* -- Gate --------------------------------------------------------------- *)

(* A minimal results file of the harness's shape. *)
let results ?(digest = "d1") ?(identical = true) ?(runs = 16.0) ?(dijkstra = 1000.0)
    ?(events_per_sec = 1e7) () =
  J.Obj
    [
      ("schema_version", J.Num (float_of_int Check.schema_version));
      ("harness", J.Str "smrp-bench");
      ( "workload",
        J.Obj
          [
            ("fig9_digest", J.Str digest);
            ("seq_par_identical", J.Bool identical);
            ("fig9_metrics", J.Obj [ ("scenario.runs", J.Num runs); ("scenario.members", J.Num 480.0) ]);
          ] );
      ( "micro_ns_per_run",
        J.Obj [ ("dijkstra_n100", J.Num dijkstra); ("spf_build", J.Num 2000.0) ] );
      ("micro_throughput", J.Obj [ ("engine_events_per_sec", J.Num events_per_sec) ]);
    ]

let baseline = Check.baseline_of_results (results ())

let run ?quick ~res () = Check.check ?quick ~baseline ~results:res ()

let gate_passes_on_identical () =
  let r = run ~res:(results ()) () in
  check "passes" true (Check.passed r);
  check_int "no failures" 0 r.Check.failures;
  check "renders PASS" true
    (let s = Check.render r in
     String.length s > 0 && List.exists (fun l -> l = "PASS") (String.split_on_char '\n' s))

let gate_passes_within_tolerance () =
  (* Default tolerance is ±50%: +40% passes, and so does a large speed-up
     (improvements never fail, they only earn a note). *)
  check "slowdown within tolerance" true (Check.passed (run ~res:(results ~dijkstra:1400.0 ()) ()));
  let faster = run ~res:(results ~dijkstra:10.0 ()) () in
  check "improvement passes" true (Check.passed faster);
  check "improvement noted" true (faster.Check.notes <> [])

let gate_fails_on_micro_regression () =
  let r = run ~res:(results ~dijkstra:2000.0 ()) () in
  check "+100% fails at 50%" true (not (Check.passed r));
  check "renders FAIL with the metric" true
    (let s = Check.render r in
     List.exists (fun l -> l = "FAIL") (String.split_on_char '\n' s)
     && List.exists
          (fun row -> row.Check.metric = "micro.dijkstra_n100" && row.Check.status = Check.Regression)
          r.Check.rows);
  (* Quick mode multiplies the tolerance by quick_factor (4): 50% -> 200%,
     so the same +100% passes. *)
  check "quick mode widens tolerance" true
    (Check.passed (run ~quick:true ~res:(results ~dijkstra:2000.0 ()) ()))

let gate_throughput_direction_reversed () =
  (* micro_throughput is a rate: a drop beyond tolerance is the regression,
     a rise only earns the refresh note. *)
  let r = run ~res:(results ~events_per_sec:4e6 ()) () in
  check "-60% throughput fails at 50%" true (not (Check.passed r));
  check "flagged on the throughput row" true
    (List.exists
       (fun row ->
         row.Check.metric = "throughput.engine_events_per_sec"
         && row.Check.status = Check.Regression)
       r.Check.rows);
  let faster = run ~res:(results ~events_per_sec:3e7 ()) () in
  check "+200% throughput passes" true (Check.passed faster);
  check "improvement noted" true (faster.Check.notes <> []);
  check "small drop within tolerance passes" true
    (Check.passed (run ~res:(results ~events_per_sec:8e6 ()) ()));
  check "quick mode widens the drop tolerance" true
    (Check.passed (run ~quick:true ~res:(results ~events_per_sec:4e6 ()) ()))

let gate_fails_on_workload_drift () =
  let fails r = not (Check.passed r) in
  check "digest drift" true (fails (run ~res:(results ~digest:"d2" ()) ()));
  check "metric drift" true (fails (run ~res:(results ~runs:17.0 ()) ()));
  check "seq/par attestation" true (fails (run ~res:(results ~identical:false ()) ()));
  (* Workload drift is exact: quick mode must NOT excuse it. *)
  check "quick mode still exact on workload" true
    (fails (run ~quick:true ~res:(results ~runs:17.0 ()) ()))

let gate_fails_on_missing_and_schema () =
  let without_micro =
    match results () with
    | J.Obj members -> J.Obj (List.filter (fun (k, _) -> k <> "micro_ns_per_run") members)
    | _ -> assert false
  in
  let r = run ~res:without_micro () in
  check "missing baseline metrics fail" true (not (Check.passed r));
  check "flagged as missing" true
    (List.exists (fun row -> row.Check.status = Check.Missing) r.Check.rows);
  let wrong_schema =
    match results () with
    | J.Obj members ->
        J.Obj (List.map (fun (k, v) -> if k = "schema_version" then (k, J.Num 1.0) else (k, v)) members)
    | _ -> assert false
  in
  check "schema mismatch fails" true (not (Check.passed (run ~res:wrong_schema ())))

let baseline_derivation_shape () =
  check "derived baseline passes against its source" true (Check.passed (run ~res:(results ()) ()));
  check "tolerances present" true
    (J.mem_path [ "tolerances"; "micro_default_rel" ] baseline <> None);
  check "workload copied" true
    (J.mem_path [ "workload"; "fig9_digest" ] baseline = Some (J.Str "d1"));
  check "attestation not baked into baseline" true
    (J.mem_path [ "workload"; "seq_par_identical" ] baseline = None)

let () =
  Alcotest.run "bench_gate"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick json_roundtrip;
          Alcotest.test_case "rejects malformed" `Quick json_rejects_malformed;
          Alcotest.test_case "accessors" `Quick json_accessors;
        ] );
      ( "gate",
        [
          Alcotest.test_case "passes on identical" `Quick gate_passes_on_identical;
          Alcotest.test_case "passes within tolerance" `Quick gate_passes_within_tolerance;
          Alcotest.test_case "fails on micro regression" `Quick gate_fails_on_micro_regression;
          Alcotest.test_case "throughput direction reversed" `Quick
            gate_throughput_direction_reversed;
          Alcotest.test_case "fails on workload drift" `Quick gate_fails_on_workload_drift;
          Alcotest.test_case "fails on missing/schema" `Quick gate_fails_on_missing_and_schema;
          Alcotest.test_case "baseline derivation" `Quick baseline_derivation_shape;
        ] );
    ]
