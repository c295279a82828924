module Stats = Smrp_metrics.Stats
module Table = Smrp_metrics.Table

let check = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let summarize_known_sample () =
  let s = Stats.summarize [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
  check_float "mean" 5.0 s.Stats.mean;
  Alcotest.(check int) "count" 8 s.Stats.count;
  check_float "min" 2.0 s.Stats.min;
  check_float "max" 9.0 s.Stats.max;
  (* Sample stddev of this classic sample is sqrt(32/7). *)
  Alcotest.(check (float 1e-6)) "stddev" (sqrt (32.0 /. 7.0)) s.Stats.stddev;
  Alcotest.(check (float 1e-6)) "ci95" (1.96 *. sqrt (32.0 /. 7.0) /. sqrt 8.0) s.Stats.ci95

let summarize_singleton () =
  let s = Stats.summarize [ 3.0 ] in
  check_float "mean" 3.0 s.Stats.mean;
  check_float "stddev zero" 0.0 s.Stats.stddev;
  check_float "ci zero" 0.0 s.Stats.ci95

let summarize_empty_rejected () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.summarize: empty sample") (fun () ->
      ignore (Stats.summarize []))

let relative_metrics () =
  check_float "reduction" 0.25 (Stats.relative_reduction ~baseline:4.0 ~improved:3.0);
  check_float "increase" 0.25 (Stats.relative_increase ~baseline:4.0 ~changed:5.0);
  check_float "zero baseline reduction" 0.0 (Stats.relative_reduction ~baseline:0.0 ~improved:1.0);
  check_float "zero baseline increase" 0.0 (Stats.relative_increase ~baseline:0.0 ~changed:1.0)

let table_renders_aligned () =
  let t = Table.create ~columns:[ "name"; "value" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "23456" ];
  let out = Table.render t in
  let lines = String.split_on_char '\n' out in
  Alcotest.(check int) "header + rule + rows" 4 (List.length lines);
  check "contains header" true (String.length (List.hd lines) > 0);
  (* All lines the same width modulo trailing pad. *)
  check "row content present" true
    (List.exists (fun l -> String.length l >= 5 && String.sub l 0 5 = "alpha") lines)

let table_rejects_bad_rows () =
  let t = Table.create ~columns:[ "a"; "b" ] in
  Alcotest.check_raises "width" (Invalid_argument "Table.add_row: width mismatch") (fun () ->
      Table.add_row t [ "only-one" ]);
  Alcotest.check_raises "no columns" (Invalid_argument "Table.create: no columns") (fun () ->
      ignore (Table.create ~columns:[]))

let csv_export () =
  let t = Table.create ~columns:[ "name"; "value" ] in
  Table.add_row t [ "plain"; "1" ];
  Table.add_row t [ "with,comma"; "quote\"inside" ];
  let out = Table.to_csv t in
  Alcotest.(check string) "csv"
    "name,value\nplain,1\n\"with,comma\",\"quote\"\"inside\"\n" out

let scatter_marks_points () =
  let out = Table.scatter ~xlabel:"x" ~ylabel:"y" [ (1.0, 0.5); (2.0, 2.0) ] in
  check "has star" true (String.contains out '*');
  check "has diagonal" true (String.contains out '.');
  check "diagonal hit marked" true (String.contains out 'o');
  Alcotest.(check string) "empty plot" "(no points)" (Table.scatter ~xlabel:"x" ~ylabel:"y" [])

let () =
  Alcotest.run "metrics"
    [
      ( "stats",
        [
          Alcotest.test_case "summarize known sample" `Quick summarize_known_sample;
          Alcotest.test_case "singleton" `Quick summarize_singleton;
          Alcotest.test_case "empty rejected" `Quick summarize_empty_rejected;
          Alcotest.test_case "relative metrics" `Quick relative_metrics;
        ] );
      ( "rendering",
        [
          Alcotest.test_case "table aligned" `Quick table_renders_aligned;
          Alcotest.test_case "table rejects bad rows" `Quick table_rejects_bad_rows;
          Alcotest.test_case "csv export" `Quick csv_export;
          Alcotest.test_case "scatter marks points" `Quick scatter_marks_points;
        ] );
    ]
