module Graph = Smrp_graph.Graph
module Tree = Smrp_core.Tree
module Fixtures = Smrp_topology.Fixtures

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))
let check_ilist = Alcotest.(check (list int))

let assert_valid t = match Tree.validate t with Ok () -> () | Error e -> Alcotest.fail e

let edge g u v = (Option.get (Graph.edge_between g u v)).Graph.id

(* Line 0-1-2-3-4: source 0, graft 0-1-2, member at 2. *)
let line_tree () =
  let g = Fixtures.line 5 in
  let t = Tree.create g ~source:0 in
  Tree.graft t ~nodes:[ 0; 1; 2 ] ~edges:[ edge g 0 1; edge g 1 2 ];
  Tree.add_member t 2;
  (g, t)

let create_basics () =
  let g = Fixtures.line 3 in
  let t = Tree.create g ~source:1 in
  check "source on tree" true (Tree.is_on_tree t 1);
  check "others off" false (Tree.is_on_tree t 0);
  check_int "no members" 0 (Tree.member_count t);
  check_float "source delay" 0.0 (Tree.delay_to_source t 1);
  check_int "source shr" 0 (Tree.shr t 1);
  check_ilist "on-tree nodes" [ 1 ] (Tree.on_tree_nodes t);
  assert_valid t

let graft_and_member () =
  let g, t = line_tree () in
  ignore g;
  check "relay on tree" true (Tree.is_on_tree t 1);
  check "relay not member" false (Tree.is_member t 1);
  check "member" true (Tree.is_member t 2);
  check_int "N at relay" 1 (Tree.subtree_members t 1);
  check_int "N at source" 1 (Tree.subtree_members t 0);
  check_int "SHR of member" 2 (Tree.shr t 2);
  check_float "delay" 2.0 (Tree.delay_to_source t 2);
  check_ilist "path" [ 2; 1; 0 ] (Tree.path_to_source t 2);
  check_int "tree edges" 2 (List.length (Tree.tree_edges t));
  check_float "cost" 2.0 (Tree.total_cost t);
  assert_valid t

let graft_errors () =
  let g = Fixtures.line 5 in
  let t = Tree.create g ~source:0 in
  Alcotest.check_raises "short path" (Invalid_argument "Tree.graft: path needs at least two nodes")
    (fun () -> Tree.graft t ~nodes:[ 0 ] ~edges:[]);
  Alcotest.check_raises "merge off-tree" (Invalid_argument "Tree.graft: node 2 is off-tree")
    (fun () -> Tree.graft t ~nodes:[ 2; 3 ] ~edges:[ edge g 2 3 ]);
  Tree.graft t ~nodes:[ 0; 1 ] ~edges:[ edge g 0 1 ];
  Alcotest.check_raises "interior already on tree"
    (Invalid_argument "Tree.graft: interior node already on-tree") (fun () ->
      Tree.graft t ~nodes:[ 0; 1 ] ~edges:[ edge g 0 1 ]);
  Alcotest.check_raises "edge mismatch"
    (Invalid_argument "Tree.graft: edge does not join consecutive nodes") (fun () ->
      Tree.graft t ~nodes:[ 1; 2 ] ~edges:[ edge g 2 3 ])

let members_and_counts () =
  let g = Fixtures.diamond () in
  let t = Tree.create g ~source:0 in
  Tree.graft t ~nodes:[ 0; 1; 3 ] ~edges:[ edge g 0 1; edge g 1 3 ];
  Tree.add_member t 3;
  Tree.add_member t 1;
  check_int "two members" 2 (Tree.member_count t);
  check_ilist "members sorted" [ 1; 3 ] (Tree.members t);
  check_int "N at 1 counts both" 2 (Tree.subtree_members t 1);
  check_int "SHR of 3" 3 (Tree.shr t 3);
  assert_valid t;
  Alcotest.check_raises "double join" (Invalid_argument "Tree.add_member: already a member")
    (fun () -> Tree.add_member t 3)

let leave_prunes_relays () =
  let g, t = line_tree () in
  ignore g;
  Tree.remove_member t 2;
  check "member gone" false (Tree.is_on_tree t 2);
  check "relay pruned" false (Tree.is_on_tree t 1);
  check "source stays" true (Tree.is_on_tree t 0);
  check_int "no members" 0 (Tree.member_count t);
  assert_valid t

let leave_keeps_shared_relays () =
  let g = Fixtures.line 5 in
  let t = Tree.create g ~source:0 in
  Tree.graft t ~nodes:[ 0; 1; 2; 3 ] ~edges:[ edge g 0 1; edge g 1 2; edge g 2 3 ];
  Tree.add_member t 3;
  Tree.add_member t 2;
  Tree.remove_member t 3;
  check "3 pruned" false (Tree.is_on_tree t 3);
  check "2 stays (member)" true (Tree.is_member t 2);
  check_int "N at 1" 1 (Tree.subtree_members t 1);
  assert_valid t

let interior_member_leave_keeps_subtree () =
  let g = Fixtures.line 5 in
  let t = Tree.create g ~source:0 in
  Tree.graft t ~nodes:[ 0; 1; 2; 3 ] ~edges:[ edge g 0 1; edge g 1 2; edge g 2 3 ];
  Tree.add_member t 3;
  Tree.add_member t 2;
  Tree.remove_member t 2;
  check "2 stays as relay for 3" true (Tree.is_on_tree t 2);
  check "2 no longer member" false (Tree.is_member t 2);
  check_int "N at 2" 1 (Tree.subtree_members t 2);
  assert_valid t

let descendants_order () =
  let g = Fixtures.grid 3 in
  (* source 0; two branches: 0-1-2 and 0-3-6. *)
  let t = Tree.create g ~source:0 in
  Tree.graft t ~nodes:[ 0; 1; 2 ] ~edges:[ edge g 0 1; edge g 1 2 ];
  Tree.add_member t 2;
  Tree.graft t ~nodes:[ 0; 3; 6 ] ~edges:[ edge g 0 3; edge g 3 6 ];
  Tree.add_member t 6;
  (* A detached branch is the node and its descendants, nothing else. *)
  let branch, _ = Tree.detach_branch t ~node:1 in
  check_ilist "subtree of 1" [ 1; 2 ]
    (List.filter (Tree.branch_contains branch) (List.init (Graph.node_count g) Fun.id))

let detach_attach_previous_is_identity () =
  let g = Fixtures.grid 3 in
  let t = Tree.create g ~source:0 in
  Tree.graft t ~nodes:[ 0; 1; 2; 5 ] ~edges:[ edge g 0 1; edge g 1 2; edge g 2 5 ];
  Tree.add_member t 5;
  let state t =
    List.map
      (fun v ->
        ( Tree.is_member t v,
          Tree.path_to_source t v,
          Tree.subtree_members t v,
          Tree.shr t v,
          Tree.delay_to_source t v ))
      (Tree.on_tree_nodes t)
  in
  let before = state t in
  let branch, (nodes, edges) = Tree.detach_branch t ~node:5 in
  check "branch contains root" true (Tree.branch_contains branch 5);
  check "branch excludes others" false (Tree.branch_contains branch 2);
  Tree.attach_branch t branch ~nodes ~edges;
  check "tree unchanged" true (state t = before);
  assert_valid t

let detach_prunes_emptied_relays () =
  let g = Fixtures.grid 3 in
  let t = Tree.create g ~source:0 in
  Tree.graft t ~nodes:[ 0; 1; 2; 5 ] ~edges:[ edge g 0 1; edge g 1 2; edge g 2 5 ];
  Tree.add_member t 5;
  let _branch, (nodes, _) = Tree.detach_branch t ~node:5 in
  (* Relays 1 and 2 carried only node 5; the previous attachment runs from
     the survivor (the source). *)
  check "relay 1 pruned" false (Tree.is_on_tree t 1);
  check "relay 2 pruned" false (Tree.is_on_tree t 2);
  check_ilist "previous runs from source" [ 0; 1; 2; 5 ] nodes

let attach_moves_subtree_delays () =
  let g = Fixtures.grid 3 in
  (* 0-1-2-5 with member 5 and member 2: move node 2 (subtree {2,5}) onto
     0-3-4...no: attach 2 via path 0-3-4-5? 5 is in subtree. Use 2's new
     path through 3-4: nodes [0;3;4;...]? 4 adjacent to 5 not 2. Grid(3):
     2's neighbors are 1 and 5. So attach via [0;1;2] only... use node 5
     instead: move 5 from parent 2 to path 0-3-4-5. *)
  let t = Tree.create g ~source:0 in
  Tree.graft t ~nodes:[ 0; 1; 2; 5 ] ~edges:[ edge g 0 1; edge g 1 2; edge g 2 5 ];
  Tree.add_member t 5;
  Tree.add_member t 2;
  let branch, _previous = Tree.detach_branch t ~node:5 in
  Tree.attach_branch t branch ~nodes:[ 0; 3; 4; 5 ]
    ~edges:[ edge g 0 3; edge g 3 4; edge g 4 5 ];
  check_float "new delay" 3.0 (Tree.delay_to_source t 5);
  check_ilist "new path" [ 5; 4; 3; 0 ] (Tree.path_to_source t 5);
  check_int "N at 2 back to itself" 1 (Tree.subtree_members t 2);
  check_int "N at 4" 1 (Tree.subtree_members t 4);
  assert_valid t

let detach_source_rejected () =
  let g = Fixtures.line 3 in
  let t = Tree.create g ~source:0 in
  Alcotest.check_raises "source" (Invalid_argument "Tree.detach_branch: cannot detach the source")
    (fun () -> ignore (Tree.detach_branch t ~node:0))

let attach_rejects_branch_crossing () =
  let g = Fixtures.grid 3 in
  let t = Tree.create g ~source:0 in
  Tree.graft t ~nodes:[ 0; 1; 2; 5; 4 ] ~edges:[ edge g 0 1; edge g 1 2; edge g 2 5; edge g 5 4 ];
  Tree.add_member t 4;
  let branch, previous = Tree.detach_branch t ~node:5 in
  Alcotest.check_raises "path through branch node"
    (Invalid_argument "Tree.attach_branch: path crosses the branch") (fun () ->
      (* 0-3-4-5 passes through 4, which is inside the detached subtree. *)
      Tree.attach_branch t branch ~nodes:[ 0; 3; 4; 5 ]
        ~edges:[ edge g 0 3; edge g 3 4; edge g 4 5 ]);
  let nodes, edges = previous in
  Tree.attach_branch t branch ~nodes ~edges;
  assert_valid t

let validate_catches_corruption () =
  (* validate is the oracle for the property tests, so check that it is not
     vacuously true: a hand-corrupted count must be reported. *)
  let g, t = line_tree () in
  ignore g;
  match Tree.validate t with
  | Error e -> Alcotest.fail e
  | Ok () ->
      (* No public mutator can corrupt the tree; instead check an off-tree
         query raises. *)
      Alcotest.check_raises "delay of off-tree node"
        (Invalid_argument "Tree.delay_to_source: node is off-tree") (fun () ->
          ignore (Tree.delay_to_source t 4))

let () =
  Alcotest.run "tree"
    [
      ( "basics",
        [
          Alcotest.test_case "create" `Quick create_basics;
          Alcotest.test_case "graft and member" `Quick graft_and_member;
          Alcotest.test_case "graft errors" `Quick graft_errors;
          Alcotest.test_case "members and counts" `Quick members_and_counts;
          Alcotest.test_case "descendants" `Quick descendants_order;
        ] );
      ( "leave",
        [
          Alcotest.test_case "prunes relay chain" `Quick leave_prunes_relays;
          Alcotest.test_case "keeps shared relays" `Quick leave_keeps_shared_relays;
          Alcotest.test_case "interior member leaves" `Quick interior_member_leave_keeps_subtree;
        ] );
      ( "branch",
        [
          Alcotest.test_case "detach/attach round trip" `Quick detach_attach_previous_is_identity;
          Alcotest.test_case "detach prunes emptied relays" `Quick detach_prunes_emptied_relays;
          Alcotest.test_case "attach re-homes subtree delays" `Quick attach_moves_subtree_delays;
          Alcotest.test_case "cannot detach source" `Quick detach_source_rejected;
          Alcotest.test_case "attach rejects branch crossing" `Quick attach_rejects_branch_crossing;
        ] );
      ( "validation",
        [ Alcotest.test_case "off-tree queries rejected" `Quick validate_catches_corruption ] );
    ]
