(* The Session façade: churn, reshaping and failure repair end to end. *)

module Graph = Smrp_graph.Graph
module Rng = Smrp_rng.Rng
module Waxman = Smrp_topology.Waxman
module Fixtures = Smrp_topology.Fixtures
module Tree = Smrp_core.Tree
module Failure = Smrp_core.Failure
module Recovery = Smrp_core.Recovery
module Session = Smrp_core.Session

(* Property tests run with a pinned PRNG state so failures are
   reproducible run over run. *)
let qcheck_case t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 424242 |]) t

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let edge g u v = (Option.get (Graph.edge_between g u v)).Graph.id

let assert_valid t = match Tree.validate t with Ok () -> () | Error e -> Alcotest.fail e

let join_leave_events () =
  let g = Fixtures.line 4 in
  let s = Session.create g ~source:0 ~protocol:(Session.Smrp { d_thresh = 0.3 }) in
  Session.join s 3;
  Session.join s 2;
  Session.leave s 3;
  check_int "one member" 1 (Tree.member_count (Session.tree s));
  (match Session.events s with
  | [ Session.Joined 3; Session.Joined 2; Session.Left 3 ] -> ()
  | _ -> Alcotest.fail "unexpected event log");
  assert_valid (Session.tree s)

let protocols_choose_strategy () =
  let g = Fixtures.fig1 () in
  ignore g;
  let f = Fixtures.fig1 () in
  let graph = f.Fixtures.graph in
  let run protocol =
    let s = Session.create graph ~source:f.Fixtures.s ~protocol in
    Session.join s f.Fixtures.c;
    Session.join s f.Fixtures.d;
    let repairs = Session.fail s (Failure.Link (edge graph f.Fixtures.a f.Fixtures.d)) in
    (s, repairs)
  in
  let _, spf_repairs = run Session.Spf in
  (match spf_repairs with
  | [ r ] -> check "SPF repairs globally" true (r.Session.strategy = `Global)
  | _ -> Alcotest.fail "expected one repair");
  let _, smrp_repairs = run (Session.Smrp { d_thresh = 0.3 }) in
  match smrp_repairs with
  | [ r ] ->
      check "SMRP repairs locally" true (r.Session.strategy = `Local);
      check "local detour is short" true (r.Session.detour.Recovery.recovery_distance <= 2.0)
  | _ -> Alcotest.fail "expected one repair"

let fail_restores_members () =
  let rng = Rng.create 77 in
  let topo = Waxman.generate rng ~n:60 ~alpha:0.25 ~beta:0.25 in
  let g = topo.Waxman.graph in
  let sample = Smrp_rng.Rng.sample_without_replacement rng 13 60 in
  let source = List.hd sample in
  let members = List.tl sample in
  let s = Session.create g ~source ~protocol:(Session.Smrp { d_thresh = 0.3 }) in
  List.iter (Session.join s) members;
  let victim = List.hd members in
  match Failure.worst_case_for_member (Session.tree s) victim with
  | None -> Alcotest.fail "expected a worst case"
  | Some f ->
      let affected = Failure.affected_members (Session.tree s) f in
      let repairs = Session.fail s f in
      let tree = Session.tree s in
      assert_valid tree;
      let lost =
        List.filter_map (function Session.Lost m -> Some m | _ -> None) (Session.events s)
      in
      List.iter
        (fun m ->
          if List.mem m lost then check "lost member off tree" false (Tree.is_member tree m)
          else check "member restored" true (Tree.is_member tree m))
        members;
      check_int "every affected member repaired or lost" (List.length affected)
        (List.length repairs + List.length lost)

let fail_logs_lost_members () =
  let g = Fixtures.line 3 in
  let s = Session.create g ~source:0 ~protocol:(Session.Smrp { d_thresh = 0.3 }) in
  Session.join s 2;
  let repairs = Session.fail s (Failure.Link (edge g 1 2)) in
  check_int "no repairs possible" 0 (List.length repairs);
  check "lost logged" true (List.mem (Session.Lost 2) (Session.events s));
  check "member dropped" false (Tree.is_member (Session.tree s) 2)

let fail_cascades_through_recovered_members () =
  (* Fig. 2(b)'s effect: after the failure cuts several members, an early
     repair can serve as a later member's merge point.  With D_thresh = 0
     both members share the 0-1-2-3 side of the ring; when 0-1 fails, member
     3 re-attaches around the ring (RD 5) and member 2 then merges onto 3's
     fresh path for RD 1 instead of its own RD 6 detour. *)
  let g = Fixtures.ring 8 in
  let s = Session.create g ~source:0 ~protocol:(Session.Smrp { d_thresh = 0.0 }) in
  Session.join s 2;
  Session.join s 3;
  let repairs = Session.fail s (Failure.Link (edge g 0 1)) in
  let tree = Session.tree s in
  assert_valid tree;
  check "2 and 3 back" true (Tree.is_member tree 2 && Tree.is_member tree 3);
  match repairs with
  | [ first; second ] ->
      check_int "far member first" 3 first.Session.detour.Recovery.member;
      Alcotest.(check (float 1e-9)) "around the ring" 5.0
        first.Session.detour.Recovery.recovery_distance;
      check_int "near member second" 2 second.Session.detour.Recovery.member;
      Alcotest.(check (float 1e-9)) "one hop onto the fresh path" 1.0
        second.Session.detour.Recovery.recovery_distance
  | _ -> Alcotest.fail "expected two repairs"

let reshape_all_counts () =
  let f = Fixtures.fig4 () in
  let s = Session.create f.Fixtures.graph ~source:f.Fixtures.s ~protocol:(Session.Smrp { d_thresh = 0.3 }) in
  Session.join s f.Fixtures.e;
  Session.join s f.Fixtures.g;
  Session.join s f.Fixtures.f;
  let switches = Session.reshape_all s in
  check "at least E switched" true (switches >= 1);
  assert_valid (Session.tree s)

let reshape_all_noop_for_spf () =
  let g = Fixtures.line 4 in
  let s = Session.create g ~source:0 ~protocol:Session.Spf in
  Session.join s 3;
  check_int "SPF does not reshape" 0 (Session.reshape_all s)

let sequential_failures_accumulate () =
  (* Two consecutive persistent failures on a ring: the session must avoid
     BOTH failed links for the second repair and for later joins. *)
  let g = Fixtures.ring 8 in
  let s = Session.create g ~source:0 ~protocol:(Session.Smrp { d_thresh = 0.0 }) in
  Session.join s 2;
  ignore (Session.fail s (Failure.Link (edge g 0 1)));
  (* 2 is now attached the long way round: 2-3-4-5-6-7-0. *)
  check "2 repaired" true (Tree.is_member (Session.tree s) 2);
  ignore (Session.fail s (Failure.Link (edge g 4 5)));
  (* Both ring arcs towards 2 now have a cut: 2 is isolated and dropped. *)
  check "2 lost after the second cut" false (Tree.is_member (Session.tree s) 2);
  (match Session.active_failure s with
  | Some (Failure.Multi [ _; _ ]) -> ()
  | _ -> Alcotest.fail "expected two active failures");
  (* A new join on the surviving side must route around both failures. *)
  Session.join s 6;
  check "6 joined on the surviving arc" true (Tree.is_member (Session.tree s) 6);
  Alcotest.(check (list int)) "6's path avoids the cuts" [ 6; 7; 0 ]
    (Tree.path_to_source (Session.tree s) 6);
  assert_valid (Session.tree s)

let join_after_failure_avoids_dead_link () =
  let g = Fixtures.diamond () in
  let s = Session.create g ~source:0 ~protocol:Session.Spf in
  ignore (Session.fail s (Failure.Link (edge g 0 1)));
  Session.join s 3;
  (* 3's unicast shortest path tie goes via 1 or 2; with 0-1 dead it must
     come in through 2. *)
  Alcotest.(check (list int)) "routes around the failure" [ 3; 2; 0 ]
    (Tree.path_to_source (Session.tree s) 3);
  assert_valid (Session.tree s)

let reshape_respects_active_failures () =
  let g = Fixtures.ring 6 in
  let s = Session.create g ~source:0 ~protocol:(Session.Smrp { d_thresh = 2.0 }) in
  Session.join s 2;
  ignore (Session.fail s (Failure.Link (edge g 0 1)));
  ignore (Session.reshape_all s);
  (* Whatever reshaping did, the tree must not use the failed link. *)
  let f = Option.get (Session.active_failure s) in
  List.iter
    (fun eid -> check "no failed link in tree" true (Failure.edge_ok g f eid))
    (Tree.tree_edges (Session.tree s));
  assert_valid (Session.tree s)

(* A failure naming an id outside the graph is rejected before it touches
   the session, with or without the protection tables. *)
let fail_rejects_bad_ids () =
  let g = Fixtures.ring 6 in
  List.iter
    (fun protection ->
      let s =
        Session.create ~protection g ~source:0 ~protocol:(Session.Smrp { d_thresh = 0.3 })
      in
      Session.join s 3;
      List.iter
        (fun f ->
          match Session.fail s f with
          | _ -> Alcotest.fail "a bad id was accepted"
          | exception Invalid_argument _ -> ())
        [
          Failure.Link (Graph.edge_count g);
          Failure.Node 6;
          Failure.compose [ Failure.Link 0; Failure.Node (-1) ];
        ];
      check "no failure active" true (Session.active_failure s = None);
      check "only the join logged" true (Session.events s = [ Session.Joined 3 ]);
      check "every node still reaches the source" true
        (List.for_all (Session.reachable s) (List.init 6 Fun.id)))
    [ false; true ]

let qcheck_session_failures_leave_valid_trees =
  QCheck.Test.make ~name:"session repair always leaves a valid tree" ~count:80 QCheck.small_int
    (fun seed ->
      let rng = Rng.create seed in
      let n = 20 + Rng.int rng 40 in
      let topo = Waxman.generate rng ~n ~alpha:0.2 ~beta:0.2 in
      let g = topo.Waxman.graph in
      let k = 2 + Rng.int rng 10 in
      let sample = Smrp_rng.Rng.sample_without_replacement rng (k + 1) n in
      let s =
        Session.create g ~source:(List.hd sample) ~protocol:(Session.Smrp { d_thresh = 0.3 })
      in
      List.iter (Session.join s) (List.tl sample);
      let victim = List.nth sample 1 in
      match Failure.worst_case_for_member (Session.tree s) victim with
      | None -> true
      | Some f ->
          ignore (Session.fail s f);
          Tree.validate (Session.tree s) = Ok ())

let () =
  Alcotest.run "session"
    [
      ( "membership",
        [
          Alcotest.test_case "join/leave with events" `Quick join_leave_events;
          Alcotest.test_case "reshape_all counts" `Quick reshape_all_counts;
          Alcotest.test_case "reshape_all noop for SPF" `Quick reshape_all_noop_for_spf;
        ] );
      ( "failures",
        [
          Alcotest.test_case "protocol picks strategy" `Quick protocols_choose_strategy;
          Alcotest.test_case "restores members" `Quick fail_restores_members;
          Alcotest.test_case "logs lost members" `Quick fail_logs_lost_members;
          Alcotest.test_case "repairs cascade" `Quick fail_cascades_through_recovered_members;
          Alcotest.test_case "sequential failures accumulate" `Quick sequential_failures_accumulate;
          Alcotest.test_case "joins avoid dead links" `Quick join_after_failure_avoids_dead_link;
          Alcotest.test_case "reshape respects failures" `Quick reshape_respects_active_failures;
          Alcotest.test_case "rejects bad failure ids" `Quick fail_rejects_bad_ids;
        ] );
      ( "properties",
        [ qcheck_case qcheck_session_failures_leave_valid_trees ] );
    ]
