(* Failure scenarios and detour computation (§3.1, §4.3.1). *)

module Graph = Smrp_graph.Graph
module Rng = Smrp_rng.Rng
module Waxman = Smrp_topology.Waxman
module Fixtures = Smrp_topology.Fixtures
module Tree = Smrp_core.Tree
module Spf = Smrp_core.Spf
module Smrp = Smrp_core.Smrp
module Failure = Smrp_core.Failure
module Recovery = Smrp_core.Recovery

(* Property tests run with a pinned PRNG state so failures are
   reproducible run over run. *)
let qcheck_case t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 424242 |]) t

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))
let check_ilist = Alcotest.(check (list int))

let edge g u v = (Option.get (Graph.edge_between g u v)).Graph.id

(* A global detour bounded by the source SPF over the network [f] leaves. *)
let global_detour t f ~member =
  Recovery.global_detour t f ~member
    ~spf:(Smrp.source_spf ~filters:(Failure.filters (Tree.graph t) f) t)

(* -- Failure scenarios ------------------------------------------------- *)

let filters () =
  let g = Fixtures.line 4 in
  let f_link = Failure.Link (edge g 1 2) in
  check "link failure keeps nodes" true (Failure.node_ok f_link 1);
  check "failed edge filtered" false (Failure.edge_ok g f_link (edge g 1 2));
  check "other edges survive" true (Failure.edge_ok g f_link (edge g 0 1));
  let f_node = Failure.Node 2 in
  check "failed node filtered" false (Failure.node_ok f_node 2);
  check "incident edges die" false (Failure.edge_ok g f_node (edge g 1 2));
  check "remote edges survive" true (Failure.edge_ok g f_node (edge g 0 1))

let worst_case_is_link_below_source () =
  let g = Fixtures.line 5 in
  let t = Spf.build g ~source:0 ~members:[ 4 ] in
  (match Failure.worst_case_for_member t 4 with
  | Some (Failure.Link eid) -> check_int "first link from source" (edge g 0 1) eid
  | _ -> Alcotest.fail "expected a link failure");
  check "none for the source" true (Failure.worst_case_for_member t 0 = None)

let tree_connected_under_failure () =
  let g = Fixtures.line 5 in
  let t = Spf.build g ~source:0 ~members:[ 4; 2 ] in
  let connected = Failure.tree_connected t (Failure.Link (edge g 2 3)) in
  check "source side survives" true (connected.(0) && connected.(1) && connected.(2));
  check "far side cut" false (connected.(3) || connected.(4))

let node_failure_cuts_subtree () =
  let g = Fixtures.line 5 in
  let t = Spf.build g ~source:0 ~members:[ 4; 2 ] in
  let f = Failure.Node 3 in
  check_ilist "only member 4 affected" [ 4 ] (Failure.affected_members t f);
  let f2 = Failure.Node 2 in
  (* Member 2's router died: it is not recoverable, so not "affected". *)
  check_ilist "dead member excluded, downstream affected" [ 4 ] (Failure.affected_members t f2)

(* -- Detours ----------------------------------------------------------- *)

let local_detour_on_ring () =
  let g = Fixtures.ring 6 in
  let t = Spf.build g ~source:0 ~members:[ 2 ] in
  (* Tree: 0-1-2.  Worst case kills 0-1; local detour from 2: nearest
     surviving on-tree node is 0, two hops away via 3? No: ring 0-1-2-3-4-5;
     from 2 the surviving tree is just {0}; shortest surviving path
     2-3-4-5-0 has length... ring edges all delay 1, 2→3→4→5→0 = 4...
     but 2-1-0 is blocked only at edge 0-1, so 2→1→0 is len 2 with 1 dead?
     No: only the link 0-1 failed, node 1 is alive, edge 1-2 alive, so the
     path 2..via 1 is 2-1 then stuck (0-1 failed). Hence detour = 2-3-4-5-0. *)
  let f = Option.get (Failure.worst_case_for_member t 2) in
  let d = Option.get (Recovery.local_detour t f ~member:2) in
  check_int "merge at source" 0 d.Recovery.merge;
  check_float "RD around the ring" 4.0 d.Recovery.recovery_distance;
  check_ilist "path" [ 2; 3; 4; 5; 0 ] d.Recovery.path_nodes

let local_prefers_nearest_survivor () =
  let f = Fixtures.fig1 () in
  let g = f.Fixtures.graph in
  let t = Spf.build g ~source:f.Fixtures.s ~members:[ f.Fixtures.c; f.Fixtures.d ] in
  let fail = Failure.Link (edge g f.Fixtures.a f.Fixtures.d) in
  let d = Option.get (Recovery.local_detour t fail ~member:f.Fixtures.d) in
  check_int "C is closest" f.Fixtures.c d.Recovery.merge

let trivial_detour_for_unaffected () =
  let g = Fixtures.diamond () in
  let t = Spf.build g ~source:0 ~members:[ 1; 2 ] in
  let fail = Failure.Link (edge g 0 1) in
  let d = Option.get (Recovery.local_detour t fail ~member:2) in
  check_float "zero distance" 0.0 d.Recovery.recovery_distance;
  check_int "merges at itself" 2 d.Recovery.merge

let isolated_member_gets_none () =
  let g = Fixtures.line 3 in
  let t = Spf.build g ~source:0 ~members:[ 2 ] in
  let fail = Failure.Link (edge g 1 2) in
  check "no detour" true (Recovery.local_detour t fail ~member:2 = None);
  check "no global either" true (global_detour t fail ~member:2 = None)

let dead_member_gets_none () =
  let g = Fixtures.diamond () in
  let t = Spf.build g ~source:0 ~members:[ 3 ] in
  check "dead router" true (Recovery.local_detour t (Failure.Node 3) ~member:3 = None)

let global_counts_only_new_links () =
  let f = Fixtures.fig1 () in
  let g = f.Fixtures.graph in
  let t = Spf.build g ~source:f.Fixtures.s ~members:[ f.Fixtures.c; f.Fixtures.d ] in
  let fail = Failure.Link (edge g f.Fixtures.a f.Fixtures.d) in
  let d = Option.get (global_detour t fail ~member:f.Fixtures.d) in
  (* The new unicast path is D-B-S; both links are new, RD = 3. *)
  check_float "RD counts the full new segment" 3.0 d.Recovery.recovery_distance

let global_merges_on_surviving_structure () =
  let g = Fixtures.grid 3 in
  (* Tree 0-1-2 and 0-3-6-7-8, members 2 and 8; fail link 0-3.
     8's new shortest path to 0 is e.g. 8-5-2-1-0; 2 is a surviving on-tree
     node, so the re-join merges there with RD 2. *)
  let t = Tree.create g ~source:0 in
  Tree.graft t ~nodes:[ 0; 1; 2 ] ~edges:[ edge g 0 1; edge g 1 2 ];
  Tree.add_member t 2;
  Tree.graft t ~nodes:[ 0; 3; 6; 7; 8 ] ~edges:[ edge g 0 3; edge g 3 6; edge g 6 7; edge g 7 8 ];
  Tree.add_member t 8;
  let fail = Failure.Link (edge g 0 3) in
  let d = Option.get (global_detour t fail ~member:8) in
  check_int "merges at 2" 2 d.Recovery.merge;
  check_float "RD 2" 2.0 d.Recovery.recovery_distance;
  let l = Option.get (Recovery.local_detour t fail ~member:8) in
  check_float "local finds the same here" 2.0 l.Recovery.recovery_distance

(* -- Session-level repair (isolated members, correlated failures) ------ *)

module Session = Smrp_core.Session

let session_isolated_member_is_lost () =
  (* 0-1-2 line with a pendant 3 off node 1.  Killing link 1-2 leaves
     member 2 with no surviving path to any node at all: the session must
     drop it, log [Lost], and keep the unaffected member 3 intact. *)
  let g = Graph.create 4 in
  let e01 = Graph.add_edge g 0 1 1.0 in
  let e12 = Graph.add_edge g 1 2 1.0 in
  let _e13 = Graph.add_edge g 1 3 1.0 in
  ignore e01;
  let s = Session.create g ~source:0 ~protocol:(Session.Smrp { d_thresh = 0.3 }) in
  Session.join s 2;
  Session.join s 3;
  let repairs = Session.fail s (Failure.Link e12) in
  check "nothing repairable" true (repairs = []);
  check "lost event logged" true (List.mem (Session.Lost 2) (Session.events s));
  let t = Session.tree s in
  check "member 2 dropped" false (Tree.is_member t 2);
  check "member 3 kept" true (Tree.is_member t 3);
  check_int "one member left" 1 (Tree.member_count t);
  (match Tree.validate t with Ok () -> () | Error e -> Alcotest.fail e)

let session_correlated_two_link_failure () =
  (* Correlated (SRLG-style) double failure on the 3x3 grid: both failed
     links sit on member 8's tree path, so a single-failure repair would
     route straight into the second fault.  The repair must avoid both at
     once: 8 detours via 5 to the surviving branch at 2. *)
  let g = Fixtures.grid 3 in
  let t = Tree.create g ~source:0 in
  Tree.graft t ~nodes:[ 0; 1; 2 ] ~edges:[ edge g 0 1; edge g 1 2 ];
  Tree.add_member t 2;
  Tree.graft t ~nodes:[ 0; 3; 6; 7; 8 ] ~edges:[ edge g 0 3; edge g 3 6; edge g 6 7; edge g 7 8 ];
  Tree.add_member t 8;
  let f = Failure.Multi [ Failure.Link (edge g 0 3); Failure.Link (edge g 7 8) ] in
  let d = Option.get (Recovery.local_detour t f ~member:8) in
  check_ilist "detour threads between both faults" [ 8; 5; 2 ] d.Recovery.path_nodes;
  check_float "RD counts both new links" 2.0 d.Recovery.recovery_distance;
  (* The same episode through the Session façade: one repair, no losses,
     and the rebuilt tree avoids both failed links. *)
  let s = Session.create g ~source:0 ~protocol:(Session.Smrp { d_thresh = 0.3 }) in
  Session.join s 2;
  Session.join s 8;
  let repairs = Session.fail s f in
  check_int "one member repaired" 1 (List.length repairs);
  check "no members lost" true
    (List.for_all (function Session.Lost _ -> false | _ -> true) (Session.events s));
  let t' = Session.tree s in
  check "both members still served" true (Tree.is_member t' 2 && Tree.is_member t' 8);
  List.iter
    (fun eid ->
      List.iter
        (fun v ->
          match Tree.parent_edge t' v with
          | Some e -> check "failed link not on tree" false (e = eid)
          | None -> ())
        (Tree.on_tree_nodes t'))
    [ edge g 0 3; edge g 7 8 ];
  (match Tree.validate t' with Ok () -> () | Error e -> Alcotest.fail e)

(* -- surviving_tree ---------------------------------------------------- *)

let surviving_tree_contents () =
  let g = Fixtures.line 5 in
  let t = Spf.build g ~source:0 ~members:[ 2; 4 ] in
  let fresh = Recovery.surviving_tree t (Failure.Link (edge g 2 3)) in
  check "member 2 kept" true (Tree.is_member fresh 2);
  check "member 4 dropped" false (Tree.is_member fresh 4);
  check "nodes 3,4 off tree" false (Tree.is_on_tree fresh 3 || Tree.is_on_tree fresh 4);
  check_int "one member" 1 (Tree.member_count fresh);
  (match Tree.validate fresh with Ok () -> () | Error e -> Alcotest.fail e)

let surviving_tree_total_failure () =
  let g = Fixtures.line 3 in
  let t = Spf.build g ~source:0 ~members:[ 2 ] in
  let fresh = Recovery.surviving_tree t (Failure.Link (edge g 0 1)) in
  check_ilist "only the source remains" [ 0 ] (Tree.on_tree_nodes fresh)

(* -- Properties -------------------------------------------------------- *)

let random_scene seed =
  let rng = Rng.create seed in
  let n = 20 + Rng.int rng 60 in
  let topo = Waxman.generate rng ~n ~alpha:0.2 ~beta:0.2 in
  let k = 2 + Rng.int rng (min 15 (n - 2)) in
  let sample = Smrp_rng.Rng.sample_without_replacement rng (k + 1) n in
  (topo.Waxman.graph, List.hd sample, List.tl sample)

let qcheck_local_never_longer_than_global =
  QCheck.Test.make ~name:"local detour is never longer than global detour" ~count:200
    QCheck.small_int (fun seed ->
      let g, source, members = random_scene seed in
      let t = Smrp.build ~d_thresh:0.3 g ~source ~members in
      List.for_all
        (fun m ->
          match Failure.worst_case_for_member t m with
          | None -> true
          | Some f -> (
              match (Recovery.local_detour t f ~member:m, global_detour t f ~member:m) with
              | Some l, Some gl ->
                  l.Recovery.recovery_distance <= gl.Recovery.recovery_distance +. 1e-9
              | None, Some _ -> false (* global path implies a local one *)
              | _, None -> true))
        members)

let qcheck_detour_paths_avoid_failure =
  QCheck.Test.make ~name:"detour paths avoid the failed component" ~count:150 QCheck.small_int
    (fun seed ->
      let g, source, members = random_scene seed in
      let t = Spf.build g ~source ~members in
      List.for_all
        (fun m ->
          match Failure.worst_case_for_member t m with
          | None -> true
          | Some f -> (
              match Recovery.local_detour t f ~member:m with
              | None -> true
              | Some d ->
                  List.for_all (Failure.node_ok f) d.Recovery.path_nodes
                  && List.for_all (Failure.edge_ok g f) d.Recovery.path_edges))
        members)

let qcheck_detour_merge_is_surviving =
  QCheck.Test.make ~name:"detours merge at a node that still receives data" ~count:150
    QCheck.small_int (fun seed ->
      let g, source, members = random_scene seed in
      let t = Spf.build g ~source ~members in
      List.for_all
        (fun m ->
          match Failure.worst_case_for_member t m with
          | None -> true
          | Some f -> (
              let connected = Failure.tree_connected t f in
              match Recovery.local_detour t f ~member:m with
              | None -> true
              | Some d -> connected.(d.Recovery.merge)))
        members)

let qcheck_surviving_tree_valid =
  QCheck.Test.make ~name:"surviving trees validate" ~count:150 QCheck.small_int (fun seed ->
      let g, source, members = random_scene seed in
      let t = Smrp.build ~d_thresh:0.3 g ~source ~members in
      List.for_all
        (fun m ->
          match Failure.worst_case_for_member t m with
          | None -> true
          | Some f -> Tree.validate (Recovery.surviving_tree t f) = Ok ())
        members)

let () =
  Alcotest.run "recovery"
    [
      ( "failure",
        [
          Alcotest.test_case "filters" `Quick filters;
          Alcotest.test_case "worst case link" `Quick worst_case_is_link_below_source;
          Alcotest.test_case "tree connectivity" `Quick tree_connected_under_failure;
          Alcotest.test_case "node failure" `Quick node_failure_cuts_subtree;
        ] );
      ( "detours",
        [
          Alcotest.test_case "local around a ring" `Quick local_detour_on_ring;
          Alcotest.test_case "local prefers nearest" `Quick local_prefers_nearest_survivor;
          Alcotest.test_case "trivial for unaffected" `Quick trivial_detour_for_unaffected;
          Alcotest.test_case "isolated member" `Quick isolated_member_gets_none;
          Alcotest.test_case "dead member" `Quick dead_member_gets_none;
          Alcotest.test_case "global counts new links" `Quick global_counts_only_new_links;
          Alcotest.test_case "global merges on survivors" `Quick global_merges_on_surviving_structure;
        ] );
      ( "session",
        [
          Alcotest.test_case "isolated member is lost" `Quick session_isolated_member_is_lost;
          Alcotest.test_case "correlated two-link failure" `Quick
            session_correlated_two_link_failure;
        ] );
      ( "surviving_tree",
        [
          Alcotest.test_case "contents" `Quick surviving_tree_contents;
          Alcotest.test_case "total failure" `Quick surviving_tree_total_failure;
        ] );
      ( "properties",
        [
          qcheck_case qcheck_local_never_longer_than_global;
          qcheck_case qcheck_detour_paths_avoid_failure;
          qcheck_case qcheck_detour_merge_is_surviving;
          qcheck_case qcheck_surviving_tree_valid;
        ] );
    ]
