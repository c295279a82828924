module Graph = Smrp_graph.Graph
module Fixtures = Smrp_topology.Fixtures
module Tree = Smrp_core.Tree
module Spf = Smrp_core.Spf
module Failure = Smrp_core.Failure
module Dot = Smrp_core.Dot

let check = Alcotest.(check bool)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  scan 0

let network_export () =
  let f = Fixtures.fig1 () in
  let g = f.Fixtures.graph in
  let t = Spf.build g ~source:f.Fixtures.s ~members:[ f.Fixtures.c; f.Fixtures.d ] in
  let eid = (Option.get (Graph.edge_between g f.Fixtures.a f.Fixtures.d)).Graph.id in
  let dot = Dot.network ~tree:t ~failure:(Failure.Link eid) ~highlight:[ 0 ] g in
  check "undirected graph" true (contains dot "graph network");
  check "failed edge dashed red" true (contains dot "style=dashed, color=red");
  check "highlight dotted blue" true (contains dot "style=dotted, color=blue");
  check "tree edges bold" true (contains dot "penwidth=2.5");
  check "labels carry delays" true (contains dot "label=\"1.5\"")

let network_without_tree () =
  let g = Fixtures.diamond () in
  let dot = Dot.network g in
  check "renders plain" true (contains dot "0 -- 1")

let () =
  Alcotest.run "dot"
    [
      ( "export",
        [
          Alcotest.test_case "network with failure" `Quick network_export;
          Alcotest.test_case "network plain" `Quick network_without_tree;
        ] );
    ]
