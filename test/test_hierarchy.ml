(* Hierarchical recovery architecture (§3.3.3). *)

module Subgraph = Smrp_graph.Subgraph
module Rng = Smrp_rng.Rng
module Transit_stub = Smrp_topology.Transit_stub
module Tree = Smrp_core.Tree
module Failure = Smrp_core.Failure
module Hierarchy = Smrp_core.Hierarchy

(* Property tests run with a pinned PRNG state so failures are
   reproducible run over run. *)
let qcheck_case t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 424242 |]) t

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let scene seed =
  let rng = Rng.create seed in
  let ts = Transit_stub.generate rng Transit_stub.default_params in
  let stub_nodes =
    List.concat (List.init ts.Transit_stub.stub_count (Transit_stub.nodes_of_stub ts))
  in
  let pool = Array.of_list stub_nodes in
  Rng.shuffle rng pool;
  (ts, pool.(0), Array.to_list (Array.sub pool 1 10))

let stub_of ts v =
  match ts.Transit_stub.roles.(v) with
  | Transit_stub.Stub d -> d
  | Transit_stub.Transit _ -> -1

let build_structure () =
  let ts, source, members = scene 1 in
  let h = Hierarchy.build ts ~source ~members in
  let domains = Hierarchy.member_domains h in
  (* Every member's stub domain is represented. *)
  let domain_ids = List.map (fun d -> d.Hierarchy.id) domains in
  List.iter
    (fun m -> check "member's domain present" true (List.mem (stub_of ts m) domain_ids))
    members;
  (* Domain trees validate and carry their local members. *)
  List.iter
    (fun (d : Hierarchy.domain) ->
      (match Tree.validate d.Hierarchy.tree with Ok () -> () | Error e -> Alcotest.fail e);
      List.iter
        (fun m ->
          if stub_of ts m = d.Hierarchy.id then
            let sub_m = Option.get (Subgraph.node_to_sub d.Hierarchy.sub m) in
            check "member subscribed in its domain" true (Tree.is_member d.Hierarchy.tree sub_m))
        members)
    domains

let top_domain_connects_agents () =
  let ts, source, members = scene 2 in
  let h = Hierarchy.build ts ~source ~members in
  let top = Hierarchy.top_domain h in
  (match Tree.validate top.Hierarchy.tree with Ok () -> () | Error e -> Alcotest.fail e);
  let source_domain = stub_of ts source in
  List.iter
    (fun (d : Hierarchy.domain) ->
      if d.Hierarchy.id <> source_domain then begin
        let sub_agent = Option.get (Subgraph.node_to_sub top.Hierarchy.sub d.Hierarchy.agent) in
        check "agent is a top-tree member" true (Tree.is_member top.Hierarchy.tree sub_agent)
      end)
    (Hierarchy.member_domains h)

let source_domain_rooted_at_source () =
  let ts, source, members = scene 3 in
  let h = Hierarchy.build ts ~source ~members in
  let d =
    List.find (fun d -> d.Hierarchy.id = stub_of ts source) (Hierarchy.member_domains h)
  in
  let sub_source = Option.get (Subgraph.node_to_sub d.Hierarchy.sub source) in
  check_int "tree rooted at the actual source" sub_source (Tree.source d.Hierarchy.tree)

let recoveries_confined () =
  let ts, source, members = scene 5 in
  let h = Hierarchy.build ts ~source ~members in
  List.iter
    (fun (dom : Hierarchy.domain) ->
      match Tree.tree_edges dom.Hierarchy.tree with
      | [] -> ()
      | sub_eid :: _ ->
          let orig = dom.Hierarchy.sub.Subgraph.edge_from_sub.(sub_eid) in
          let recoveries = Hierarchy.recover h (Failure.Link orig) in
          List.iter
            (fun r ->
              check "confined" true r.Hierarchy.confined;
              check "non-negative RD" true (r.Hierarchy.recovery_distance >= 0.0))
            recoveries)
    (Hierarchy.top_domain h :: Hierarchy.member_domains h)

let flat_equivalent_members () =
  let ts, source, members = scene 6 in
  let h = Hierarchy.build ts ~source ~members in
  let flat = Hierarchy.flat_equivalent h in
  (match Tree.validate flat with Ok () -> () | Error e -> Alcotest.fail e);
  List.iter (fun m -> check "member in flat tree" true (Tree.is_member flat m)) members;
  check_int "exactly the receivers" (List.length (List.sort_uniq compare members))
    (Tree.member_count flat)

let qcheck_hierarchy_builds =
  QCheck.Test.make ~name:"hierarchies build with valid domain trees" ~count:40 QCheck.small_int
    (fun seed ->
      let ts, source, members = scene seed in
      let h = Hierarchy.build ts ~source ~members in
      List.for_all
        (fun (d : Hierarchy.domain) -> Tree.validate d.Hierarchy.tree = Ok ())
        (Hierarchy.top_domain h :: Hierarchy.member_domains h))

let () =
  Alcotest.run "hierarchy"
    [
      ( "build",
        [
          Alcotest.test_case "domain structure" `Quick build_structure;
          Alcotest.test_case "top domain connects agents" `Quick top_domain_connects_agents;
          Alcotest.test_case "source domain rooted at source" `Quick source_domain_rooted_at_source;
          Alcotest.test_case "flat equivalent" `Quick flat_equivalent_members;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "recoveries confined" `Quick recoveries_confined;
        ] );
      ("properties", [ qcheck_case qcheck_hierarchy_builds ]);
    ]
