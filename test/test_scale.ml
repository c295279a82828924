(* The streaming large-n Waxman generator (Topology.Scale) and the
   session-level protection fast path.  The generator is exercised at
   reduced n — the 10^5/10^6 draws run in the CLI sweep and CI smoke — but
   through exactly the same grid-bucketed code paths; the protection test
   pins the table-lookup repairs to the candidate search they precompute. *)

module Rng = Smrp_rng.Rng
module Graph = Smrp_graph.Graph
module Connectivity = Smrp_graph.Connectivity
module Scale = Smrp_topology.Scale
module Tree = Smrp_core.Tree
module Session = Smrp_core.Session
module Failure = Smrp_core.Failure
module Recovery = Smrp_core.Recovery

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let waxman_connected () =
  let rng = Rng.create 7 in
  let n = 5_000 in
  let alpha, beta = Scale.degree_params ~n ~target_degree:8.0 in
  let t = Scale.waxman rng ~n ~alpha ~beta in
  let g = t.Scale.graph in
  check_int "node count" n (Graph.node_count g);
  let _, count = Connectivity.components g in
  check_int "single component" 1 count;
  let d = Graph.average_degree g in
  check "degree near target" true (d > 5.0 && d < 11.0);
  check "truncation bound harmless" true (t.Scale.missed_edge_bound < 1.0)

let waxman_deterministic () =
  let draw () =
    let rng = Rng.create 11 in
    let alpha, beta = Scale.degree_params ~n:2_000 ~target_degree:6.0 in
    (Scale.waxman rng ~n:2_000 ~alpha ~beta).Scale.graph
  in
  let a = draw () and b = draw () in
  check_int "same edge count" (Graph.edge_count a) (Graph.edge_count b);
  for eid = 0 to min 99 (Graph.edge_count a - 1) do
    let ea = Graph.edge a eid and eb = Graph.edge b eid in
    check_int "same u" ea.Graph.u eb.Graph.u;
    check_int "same v" ea.Graph.v eb.Graph.v
  done

(* Two sessions on the same topology with the same join order build the
   same tree; failing the same tree edge must then save exactly the same
   members whether the detour comes from the protection tables or the
   search.  The repair *granularity* legitimately differs — the table
   answer re-attaches a whole orphaned branch with one detour where the
   search repairs member by member — so the comparison is on outcomes
   (surviving members, valid tree), with the per-detour merge/RD
   equivalence pinned by the fuzz oracle's branch-detour differential. *)
let protection_matches_search () =
  let rng = Rng.create 21 in
  let n = 300 in
  let alpha, beta = Scale.degree_params ~n ~target_degree:6.0 in
  let g = (Scale.waxman rng ~n ~alpha ~beta).Scale.graph in
  let members =
    List.sort_uniq compare (List.init 24 (fun _ -> 1 + Rng.int rng (n - 1)))
  in
  let session ~protection =
    let s = Session.create ~protection g ~source:0 ~protocol:(Session.Smrp { d_thresh = 0.3 }) in
    List.iter (Session.join s) members;
    s
  in
  let probe = session ~protection:false in
  let tree = Session.tree probe in
  let eids =
    List.filter_map
      (fun m ->
        if Tree.is_on_tree tree m && m <> 0 then
          let e = Tree.parent_edge_id tree m in
          if e >= 0 then Some e else None
        else None)
      members
  in
  let eids =
    let rec take k = function x :: r when k > 0 -> x :: take (k - 1) r | _ -> [] in
    take 5 (List.sort_uniq compare eids)
  in
  check "found tree edges to fail" true (eids <> []);
  let any_protected = ref false in
  List.iter
    (fun eid ->
      let sp = session ~protection:true and ss = session ~protection:false in
      let rp = Session.fail sp (Failure.Link eid) in
      let rs = Session.fail ss (Failure.Link eid) in
      let survivors s = List.sort compare (Tree.members (Session.tree s)) in
      Alcotest.(check (list int))
        (Printf.sprintf "edge %d: same surviving members" eid)
        (survivors ss) (survivors sp);
      (match Tree.validate (Session.tree sp) with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "edge %d: protected tree invalid: %s" eid msg);
      check
        (Printf.sprintf "edge %d: search repaired iff tables repaired" eid)
        true
        ((rs = []) = (rp = []));
      (* The fast path is all-or-nothing per failure: a batch is never a
         mix of table-lookup and searched repairs. *)
      let protected_n =
        List.length (List.filter (fun r -> r.Session.strategy = `Protected) rp)
      in
      check "all-or-nothing" true (protected_n = 0 || protected_n = List.length rp);
      if protected_n > 0 then any_protected := true)
    eids;
  check "at least one failure answered from the tables" true !any_protected

let () =
  Alcotest.run "scale"
    [
      ( "generators",
        [
          Alcotest.test_case "waxman connected at 5k" `Quick waxman_connected;
          Alcotest.test_case "waxman deterministic" `Quick waxman_deterministic;
        ] );
      ( "protection",
        [
          Alcotest.test_case "table repairs match search" `Quick protection_matches_search;
        ] );
    ]
