(* Flight recorder: ring semantics, packing, dumps, and the causal
   stitcher on a pinned two-failure record stream. *)

module Flight = Smrp_obs.Flight
module Causal = Smrp_obs.Causal

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let sec s = int_of_float (s *. Flight.ticks_per_second)

(* A hand-built decoded record, for driving the stitcher directly. *)
let rec_ ?(domain = 0) ?(seq = 0) ~tick ~code ~a ~b () =
  { Flight.d_tick = tick; d_code = code; d_a = a; d_b = b; d_domain = domain; d_seq = seq }

(* -- Ring ---------------------------------------------------------------- *)

let test_wraparound () =
  let t = Flight.create ~capacity:8 () in
  let r = Flight.recorder t in
  for k = 0 to 19 do
    Flight.record r ~tick:(100 + k) ~code:Flight.ev_fire ~a:k ~b:(-k)
  done;
  check_int "dropped counts overwrites" 12 (Flight.dropped t);
  let snap = Flight.snapshot t in
  check_int "ring keeps last capacity records" 8 (List.length snap);
  List.iteri
    (fun i (r : Flight.decoded) ->
      check_int "surviving seq" (12 + i) r.Flight.d_seq;
      check_int "surviving tick" (112 + i) r.Flight.d_tick;
      check_int "operand a" (12 + i) r.Flight.d_a;
      check_int "operand b" (-(12 + i)) r.Flight.d_b)
    snap;
  Flight.reset t;
  check_int "reset clears dropped" 0 (Flight.dropped t);
  check_int "reset clears records" 0 (List.length (Flight.snapshot t));
  (* The pre-reset recorder handle stays valid. *)
  Flight.record r ~tick:7 ~code:Flight.ev_fire ~a:0 ~b:0;
  check_int "handle survives reset" 1 (List.length (Flight.snapshot t))

let test_domain_merge () =
  let t = Flight.create ~capacity:64 () in
  let r = Flight.recorder t in
  List.iter (fun k -> Flight.record r ~tick:k ~code:Flight.ev_fire ~a:0 ~b:0) [ 1; 3; 5 ];
  let d =
    Domain.spawn (fun () ->
        let r' = Flight.recorder t in
        List.iter (fun k -> Flight.record r' ~tick:k ~code:Flight.ev_schedule ~a:0 ~b:0) [ 2; 4 ])
  in
  Domain.join d;
  let snap = Flight.snapshot t in
  check_int "merged record count" 5 (List.length snap);
  let ticks = List.map (fun (r : Flight.decoded) -> r.Flight.d_tick) snap in
  check "merged stream is tick-ordered" true (ticks = [ 1; 2; 3; 4; 5 ]);
  let domains =
    List.sort_uniq compare (List.map (fun (r : Flight.decoded) -> r.Flight.d_domain) snap)
  in
  check_int "two distinct writer domains" 2 (List.length domains)

let test_roundtrip () =
  let t = Flight.create ~capacity:8 () in
  let r = Flight.recorder t in
  (* Max-width operands survive raw; the tick is truncated to 54 bits. *)
  Flight.record r ~tick:((1 lsl 54) + 5) ~code:Flight.net_send ~a:max_int ~b:(-1);
  Flight.record r ~tick:0 ~code:255 ~a:min_int ~b:0;
  (* The snapshot is tick-ordered, so the truncated-tick record (5) sorts
     after the tick-0 one. *)
  (match Flight.snapshot t with
  | [ r2; r1 ] ->
      check_int "tick truncated to 54 bits" 5 r1.Flight.d_tick;
      check_int "code" Flight.net_send r1.Flight.d_code;
      check "a = max_int survives" true (r1.Flight.d_a = max_int);
      check_int "b = -1 survives" (-1) r1.Flight.d_b;
      check_int "code truncated to 8 bits" 255 r2.Flight.d_code;
      check "a = min_int survives" true (r2.Flight.d_a = min_int)
  | l -> Alcotest.failf "expected 2 records, got %d" (List.length l));
  check "null recorder records nothing" true
    (let before = List.length (Flight.snapshot t) in
     Flight.record Flight.null ~tick:1 ~code:1 ~a:1 ~b:1;
     List.length (Flight.snapshot t) = before)

let test_code_names () =
  List.iter
    (fun c ->
      match Flight.code_of_name (Flight.code_name c) with
      | Some c' -> check_int "code name round-trips" c c'
      | None -> Alcotest.failf "code %d name does not resolve" c)
    [
      Flight.ev_fire; Flight.ev_schedule; Flight.net_send; Flight.net_deliver;
      Flight.net_drop_send; Flight.net_drop_flight; Flight.proto_failure;
      Flight.proto_detected; Flight.proto_signal; Flight.proto_installed; Flight.proto_first_data;
      Flight.proto_reshape; Flight.exec_event; Flight.exec_violation; Flight.span_dijkstra;
      Flight.span_candidate_search; Flight.span_reshape_round; Flight.span_reshape_stabilize;
      Flight.span_pool_task; Flight.span_pool_worker;
    ];
  check "numeric names accepted" true (Flight.code_of_name "42" = Some 42);
  check "unknown names rejected" true (Flight.code_of_name "no.such.code" = None)

let test_span_ticks () =
  (* Span ticks count from process start, far below the 54-bit tick
     field (epoch-based ticks would pass it in 2027). *)
  let day = int_of_float (86_400.0 *. Flight.ticks_per_second) in
  let t = Flight.create ~capacity:8 () in
  let r = Flight.recorder t in
  let start = Flight.span_start r in
  check "start is process-relative" true (start >= 0 && start < day);
  Flight.span r ~code:Flight.span_pool_task ~start ~b:(Flight.pack 5 9);
  (match Flight.snapshot t with
  | [ s ] ->
      check_int "tick is the start" start s.Flight.d_tick;
      check "a is a duration" true (s.Flight.d_a >= 0 && s.Flight.d_a < day);
      check_int "packed hi" 5 (Flight.hi s.Flight.d_b);
      check_int "packed lo" 9 (Flight.lo s.Flight.d_b)
  | l -> Alcotest.failf "expected one span record, got %d" (List.length l));
  check_int "disabled recorder reads no clock" 0 (Flight.span_start Flight.null)

(* -- Dumps --------------------------------------------------------------- *)

let test_dump_roundtrip () =
  let t = Flight.create ~capacity:8 () in
  let r = Flight.recorder t in
  Flight.record r ~tick:(sec 1.0) ~code:Flight.proto_failure ~a:3 ~b:0;
  Flight.record r ~tick:(sec 1.5) ~code:Flight.proto_detected ~a:7 ~b:(-2);
  let records = Flight.snapshot t in
  let path = Filename.temp_file "smrp-flight" ".flight" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Flight.write_dump path ~dropped:5 records;
      let records', dropped = Flight.read_dump path in
      check_int "dump preserves dropped" 5 dropped;
      check "dump round-trips records" true (records' = records));
  let bad = Filename.temp_file "smrp-flight" ".flight" in
  Fun.protect
    ~finally:(fun () -> Sys.remove bad)
    (fun () ->
      let oc = open_out bad in
      output_string oc "not a dump\n";
      close_out oc;
      check "malformed dump raises Bad_dump" true
        (match Flight.read_dump bad with
        | _ -> false
        | exception Flight.Bad_dump _ -> true))

(* Read [text] back as a dump file. *)
let read_text text =
  let path = Filename.temp_file "smrp-flight" ".flight" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc text;
      close_out oc;
      Flight.read_dump path)

let header = Printf.sprintf "smrp-flight-dump 1 %g\n" Flight.ticks_per_second

let test_dump_rejects_bad_tokens () =
  let rejected what text =
    match read_text text with
    | _ -> Alcotest.failf "%s accepted" what
    | exception Flight.Bad_dump _ -> ()
  in
  check_int "valid dump parses" 1 (List.length (fst (read_text (header ^ "dropped 0\n0 0 5 10 1 2\n"))));
  rejected "non-integer dropped count" (header ^ "dropped abc\n");
  rejected "negative dropped count" (header ^ "dropped -1\n");
  rejected "record with a bad token" (header ^ "dropped 0\n0 0 5 10 x 1 2\n");
  rejected "short record" (header ^ "dropped 0\n0 0 5 10 1\n");
  rejected "code past 255" (header ^ "dropped 0\n0 0 5 256 1 2\n");
  rejected "negative tick" (header ^ "dropped 0\n0 0 -5 10 1 2\n")

(* A valid dump's text: header, dropped line, a few records. *)
let valid_dump =
  header ^ "dropped 3\n"
  ^ String.concat ""
      (List.map
         (fun (d, s, t, c, a, b) -> Printf.sprintf "%d %d %d %d %d %d\n" d s t c a b)
         [ (0, 0, 10, 20, 3, 0); (0, 1, 15, 21, 7, 0); (1, 0, 15, 10, 42, Flight.pack 4 7) ])

let parses_or_bad_dump text =
  match read_text text with
  | _ -> true
  | exception Flight.Bad_dump _ -> true

let replacement_tokens =
  [ ""; "x"; "-1"; "1.5"; "nan"; "0x1f"; "99999999999999999999"; "256"; "dropped"; "\000"; "  " ]

let prop_random_bytes =
  QCheck.Test.make ~name:"random bytes parse or raise Bad_dump" ~count:300
    QCheck.(string_of_size Gen.(0 -- 200))
    (fun bytes -> parses_or_bad_dump bytes && parses_or_bad_dump (header ^ bytes))

let prop_token_mutations =
  QCheck.Test.make ~name:"single-token mutations parse or raise Bad_dump" ~count:300
    QCheck.(pair small_nat (pair (oneofl replacement_tokens) small_string))
    (fun (k, (token, noise)) ->
      let tokens = String.split_on_char ' ' valid_dump in
      let k = k mod List.length tokens in
      let mutate t = List.mapi (fun i x -> if i = k then t else x) tokens |> String.concat " " in
      parses_or_bad_dump (mutate token) && parses_or_bad_dump (mutate noise))

let qcheck_case t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 424242 |]) t

(* -- Causal stitching ---------------------------------------------------- *)

(* Two failure roots over one member: the first episode runs to first data
   and closes; the second re-opens the member under the new root. *)
let test_stitch_two_failures () =
  let records =
    List.mapi
      (fun i (tick, code, a) -> rec_ ~seq:i ~tick ~code ~a ~b:0 ())
      [
        (sec 1.0, Flight.proto_failure, 3);
        (sec 1.5, Flight.proto_detected, 7);
        (sec 1.6, Flight.proto_signal, 7);
        (sec 1.8, Flight.proto_installed, 7);
        (sec 2.0, Flight.proto_first_data, 7);
        (sec 3.0, Flight.proto_failure, 4);
        (sec 3.2, Flight.proto_detected, 7);
        (sec 3.3, Flight.proto_signal, 7);
        (sec 3.5, Flight.proto_first_data, 7);
      ]
  in
  let a = Causal.of_records ~dropped:2 records in
  check_int "dropped propagates" 2 a.Causal.a_dropped;
  match a.Causal.a_episodes with
  | [ e1; e2 ] ->
      let near x = function Some d -> Float.abs (d -. x) < 1e-6 | None -> false in
      check "episode 1 rooted at first failure" true (Float.abs (e1.Causal.failure_at -. 1.0) < 1e-6);
      let phases = Causal.phase_durations e1 in
      check "detect 0.5" true (near 0.5 (List.assoc Causal.Detect phases));
      check "notify 0.1" true (near 0.1 (List.assoc Causal.Notify phases));
      check "repair 0.2" true (near 0.2 (List.assoc Causal.Repair phases));
      check "stabilize 0.2" true (near 0.2 (List.assoc Causal.Stabilize phases));
      check "total 1.0" true (near 1.0 (Causal.total e1));
      check_int "episode 1 attempts" 1 e1.Causal.attempts;
      check "episode 2 rooted at second failure" true
        (Float.abs (e2.Causal.failure_at -. 3.0) < 1e-6);
      check "episode 2 skipped install" true (e2.Causal.installed_at = None);
      check "episode 2 closed by first data" true (near 3.5 e2.Causal.first_data_at)
  | l -> Alcotest.failf "expected 2 episodes, got %d" (List.length l)

let test_stitch_violation_phase () =
  let records =
    [
      rec_ ~seq:0 ~tick:0
        ~code:Flight.exec_event
        ~a:(Causal.pack_exec_event ~kind:Causal.kind_join ~operand:4)
        ~b:0 ();
      rec_ ~seq:1 ~tick:0 ~code:Flight.exec_violation ~a:(Causal.oracle_id "structure") ~b:0 ();
    ]
  in
  let a = Causal.of_records records in
  (match a.Causal.a_violations with
  | [ v ] ->
      check "oracle name resolves" true (String.equal v.Causal.v_oracle "structure");
      check "join event attributes to repair phase" true (v.Causal.v_phase = Causal.Repair);
      check_int "violating member" 4 v.Causal.v_member
  | l -> Alcotest.failf "expected 1 violation, got %d" (List.length l));
  let rendered = Causal.render a in
  check "render names the violated phase" true
    (let needle = "violated during repair phase" in
     let n = String.length needle and m = String.length rendered in
     let rec find i = i + n <= m && (String.equal (String.sub rendered i n) needle || find (i + 1)) in
     find 0)

let () =
  Alcotest.run "flight"
    [
      ( "ring",
        [
          Alcotest.test_case "wrap-around keeps newest and counts drops" `Quick test_wraparound;
          Alcotest.test_case "per-domain rings merge tick-ordered" `Quick test_domain_merge;
          Alcotest.test_case "encode/decode round-trip at operand extremes" `Quick test_roundtrip;
          Alcotest.test_case "code names round-trip" `Quick test_code_names;
          Alcotest.test_case "span ticks count from process start" `Quick test_span_ticks;
        ] );
      ( "dump",
        [
          Alcotest.test_case "write/read round-trip and Bad_dump" `Quick test_dump_roundtrip;
          Alcotest.test_case "bad counts and tokens raise Bad_dump" `Quick
            test_dump_rejects_bad_tokens;
          qcheck_case prop_random_bytes;
          qcheck_case prop_token_mutations;
        ] );
      ( "causal",
        [
          Alcotest.test_case "two-failure stream stitches two episodes" `Quick
            test_stitch_two_failures;
          Alcotest.test_case "violations attributed to recovery phase" `Quick
            test_stitch_violation_phase;
        ] );
    ]
