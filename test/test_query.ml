(* The partial-knowledge query scheme (§3.3.1). *)

module Graph = Smrp_graph.Graph
module Rng = Smrp_rng.Rng
module Waxman = Smrp_topology.Waxman
module Fixtures = Smrp_topology.Fixtures
module Tree = Smrp_core.Tree
module Spf = Smrp_core.Spf
module Smrp = Smrp_core.Smrp
module Query = Smrp_core.Query
module Oracle = Smrp_check.Oracle

(* Property tests run with a pinned PRNG state so failures are
   reproducible run over run. *)
let qcheck_case t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 424242 |]) t

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let assert_valid t = match Tree.validate t with Ok () -> () | Error e -> Alcotest.fail e

let query_candidates_subset_of_full () =
  let f = Fixtures.fig1 () in
  let t = Spf.build f.Fixtures.graph ~source:f.Fixtures.s ~members:[ f.Fixtures.c ] in
  let full = List.map (fun c -> c.Oracle.merge) (Oracle.naive_candidates t ~joiner:f.Fixtures.d) in
  let q = List.map (fun c -> c.Smrp.merge) (Query.candidates t ~joiner:f.Fixtures.d ~spf:(Smrp.source_spf t)) in
  check "subset" true (List.for_all (fun m -> List.mem m full) q);
  check "non-empty" true (q <> [])

let query_neighbor_on_tree_answers_directly () =
  let g = Fixtures.line 4 in
  let t = Spf.build g ~source:0 ~members:[ 2 ] in
  (* Joiner 3's only neighbour is 2, which is on-tree. *)
  let cands = Query.candidates t ~joiner:3 ~spf:(Smrp.source_spf t) in
  check_int "one candidate" 1 (List.length cands);
  check_int "merge at the neighbour" 2 (List.hd cands).Smrp.merge

let query_forwards_along_neighbor_spf () =
  let g = Fixtures.grid 3 in
  let t = Spf.build g ~source:0 ~members:[ 1 ] in
  (* Joiner 8: neighbours 5 and 7, both off-tree; their SPF paths towards 0
     hit the tree at 1 or 0 (grid paths).  All candidate merges must be
     on-tree nodes. *)
  let cands = Query.candidates t ~joiner:8 ~spf:(Smrp.source_spf t) in
  check "answers exist" true (cands <> []);
  List.iter (fun c -> check "merge on tree" true (Tree.is_on_tree t c.Smrp.merge)) cands

let query_attach_paths_graftable () =
  let rng = Rng.create 42 in
  let topo = Waxman.generate rng ~n:50 ~alpha:0.2 ~beta:0.2 in
  let g = topo.Waxman.graph in
  let sample = Smrp_rng.Rng.sample_without_replacement rng 10 50 in
  let t = Query.build ~d_thresh:0.3 g ~source:(List.hd sample) ~members:(List.tl sample) in
  check_int "all joined" 9 (Tree.member_count t);
  assert_valid t

let query_dedupes_by_merge () =
  let g = Fixtures.diamond () in
  let t = Spf.build g ~source:0 ~members:[] in
  (* Joiner 3 has neighbours 1 and 2; both SPF paths end at the source, so
     both answers share merge node 0 and only the cheaper connection stays. *)
  let cands = Query.candidates t ~joiner:3 ~spf:(Smrp.source_spf t) in
  check_int "single deduped candidate" 1 (List.length cands);
  check_int "merge at source" 0 (List.hd cands).Smrp.merge

let query_join_degrades_gracefully () =
  (* A joiner whose single neighbour is the source itself. *)
  let g = Fixtures.line 2 in
  let t = Tree.create g ~source:0 in
  Query.join ~d_thresh:0.3 t 1;
  check "joined" true (Tree.is_member t 1);
  assert_valid t

let qcheck_query_trees_valid =
  QCheck.Test.make ~name:"query-built trees always validate" ~count:100 QCheck.small_int
    (fun seed ->
      let rng = Rng.create seed in
      let n = 20 + Rng.int rng 40 in
      let topo = Waxman.generate rng ~n ~alpha:0.2 ~beta:0.2 in
      let k = 2 + Rng.int rng 10 in
      let sample = Smrp_rng.Rng.sample_without_replacement rng (k + 1) n in
      let t =
        Query.build ~d_thresh:0.3 topo.Waxman.graph ~source:(List.hd sample)
          ~members:(List.tl sample)
      in
      Tree.validate t = Ok () && Tree.member_count t = k)

let qcheck_query_no_better_than_full =
  QCheck.Test.make ~name:"query candidates never beat the full-knowledge optimum SHR" ~count:100
    QCheck.small_int (fun seed ->
      let rng = Rng.create seed in
      let n = 20 + Rng.int rng 40 in
      let topo = Waxman.generate rng ~n ~alpha:0.2 ~beta:0.2 in
      let k = 2 + Rng.int rng 8 in
      let sample = Smrp_rng.Rng.sample_without_replacement rng (k + 2) n in
      let source = List.hd sample in
      let joiner = List.nth sample 1 in
      let members = List.filteri (fun i _ -> i >= 2) sample in
      let t = Smrp.build ~d_thresh:0.3 topo.Waxman.graph ~source ~members in
      if Tree.is_on_tree t joiner then true
      else begin
        let best shrs = List.fold_left min max_int shrs in
        let full = List.map (fun c -> c.Oracle.shr) (Oracle.naive_candidates t ~joiner) in
        let q = List.map (fun c -> c.Smrp.shr) (Query.candidates t ~joiner ~spf:(Smrp.source_spf t)) in
        q = [] || best q >= best full
      end)

let () =
  Alcotest.run "query"
    [
      ( "candidates",
        [
          Alcotest.test_case "subset of full knowledge" `Quick query_candidates_subset_of_full;
          Alcotest.test_case "on-tree neighbour answers" `Quick query_neighbor_on_tree_answers_directly;
          Alcotest.test_case "forwards along neighbour SPF" `Quick query_forwards_along_neighbor_spf;
          Alcotest.test_case "dedupes by merge node" `Quick query_dedupes_by_merge;
        ] );
      ( "join",
        [
          Alcotest.test_case "builds valid trees" `Quick query_attach_paths_graftable;
          Alcotest.test_case "degrades gracefully" `Quick query_join_degrades_gracefully;
        ] );
      ( "properties",
        [
          qcheck_case qcheck_query_trees_valid;
          qcheck_case qcheck_query_no_better_than_full;
        ] );
    ]
