(* SPF baseline and SMRP join semantics beyond the paper's walkthroughs. *)

module Graph = Smrp_graph.Graph
module Rng = Smrp_rng.Rng
module Waxman = Smrp_topology.Waxman
module Fixtures = Smrp_topology.Fixtures
module Tree = Smrp_core.Tree
module Spf = Smrp_core.Spf
module Smrp = Smrp_core.Smrp
module Oracle = Smrp_check.Oracle

(* Property tests run with a pinned PRNG state so failures are
   reproducible run over run. *)
let qcheck_case t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 424242 |]) t

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))
let check_ilist = Alcotest.(check (list int))

let assert_valid t = match Tree.validate t with Ok () -> () | Error e -> Alcotest.fail e

(* -- SPF --------------------------------------------------------------- *)

let spf_line () =
  let g = Fixtures.line 5 in
  let t = Spf.build g ~source:0 ~members:[ 4; 2 ] in
  check_ilist "4 via the line" [ 4; 3; 2; 1; 0 ] (Tree.path_to_source t 4);
  check "2 became member on existing path" true (Tree.is_member t 2);
  check_int "two members" 2 (Tree.member_count t);
  assert_valid t

let spf_merges_at_first_on_tree_node () =
  let g = Fixtures.grid 3 in
  let t = Tree.create g ~source:0 in
  Spf.join t 2;
  (* 8's shortest path to 0 has several options; whatever it picks, the graft
     must merge at the deepest on-tree node of that path, so the structure
     remains a tree: edges = on-tree nodes - 1. *)
  Spf.join t 8;
  check_int "still a tree" (List.length (Tree.on_tree_nodes t) - 1)
    (List.length (Tree.tree_edges t));
  assert_valid t

let spf_attach_path_on_tree () =
  let g = Fixtures.line 3 in
  let t = Tree.create g ~source:0 in
  Spf.join t 2;
  Alcotest.(check (pair (list int) (list int))) "trivial attach" ([ 1 ], []) (Spf.attach_path t 1 ~spf:(Smrp.source_spf t))

let spf_errors () =
  let g = Graph.create 3 in
  ignore (Graph.add_edge g 0 1 1.0);
  let t = Tree.create g ~source:0 in
  Alcotest.check_raises "unreachable" (Invalid_argument "Spf.attach_path: source unreachable")
    (fun () -> Spf.join t 2);
  Spf.join t 1;
  Alcotest.check_raises "double join" (Invalid_argument "Spf.join: already a member") (fun () ->
      Spf.join t 1)

let spf_leave_roundtrip () =
  let g = Fixtures.line 4 in
  let t = Spf.build g ~source:0 ~members:[ 3 ] in
  Tree.remove_member t 3;
  check_ilist "tree shrinks to source" [ 0 ] (Tree.on_tree_nodes t);
  assert_valid t

(* -- SMRP candidates --------------------------------------------------- *)

let candidates_on_fig1 () =
  let f = Fixtures.fig1 () in
  let t = Spf.build f.Fixtures.graph ~source:f.Fixtures.s ~members:[ f.Fixtures.c ] in
  (* Tree: S-A-C.  Candidates for D: merge at A (via L_AD), at C (via L_CD),
     at S (via B). *)
  let cands = Oracle.naive_candidates t ~joiner:f.Fixtures.d in
  let merges = List.map (fun c -> c.Oracle.merge) cands in
  check_ilist "three merge options" [ f.Fixtures.s; f.Fixtures.a; f.Fixtures.c ] merges;
  let at node = List.find (fun c -> c.Oracle.merge = node) cands in
  check_int "SHR at S" 0 (at f.Fixtures.s).Oracle.shr;
  check_int "SHR at A" 1 (at f.Fixtures.a).Oracle.shr;
  check_int "SHR at C" 2 (at f.Fixtures.c).Oracle.shr;
  check_float "delay via A" 2.0 (at f.Fixtures.a).Oracle.total_delay;
  check_float "attach via C" 2.0 (at f.Fixtures.c).Oracle.attach_delay;
  check_float "delay via B to S" 3.0 (at f.Fixtures.s).Oracle.total_delay;
  (* The join decision over that set, at the paper's bound and at one loose
     enough to admit the unshared merge at S. *)
  let spf_distance = Option.get (Smrp.spf_distance t f.Fixtures.d) in
  List.iter
    (fun d_thresh ->
      let o = Option.get (Oracle.naive_select ~d_thresh ~spf_distance cands) in
      Alcotest.(check (pair (list int) (list int)))
        (Printf.sprintf "attach path at D_thresh %g" d_thresh)
        (o.Oracle.attach_nodes, o.Oracle.attach_edges)
        (Smrp.attach_path ~d_thresh t f.Fixtures.d ~spf:(Smrp.source_spf t)))
    [ 0.0; 0.3; 1.0 ]

let candidate_interiors_avoid_tree () =
  let g = Fixtures.grid 4 in
  let rng = Rng.create 3 in
  let members = Smrp_rng.Rng.sample_without_replacement rng 5 16 in
  let t = Smrp.build g ~source:0 ~members:(List.filter (fun v -> v <> 0) members) in
  let joiners = List.filter (fun v -> not (Tree.is_on_tree t v)) (List.init 16 Fun.id) in
  check "some joiner is off-tree" true (joiners <> []);
  List.iter
    (fun joiner ->
      match Smrp.attach_path t joiner ~spf:(Smrp.source_spf t) with
      | (merge :: interior_and_joiner as nodes), edges ->
          check "merge on-tree" true (Tree.is_on_tree t merge);
          check_int "ends at the joiner" joiner (List.nth nodes (List.length nodes - 1));
          check_int "one edge per hop" (List.length nodes - 1) (List.length edges);
          let interior =
            List.filteri (fun i _ -> i < List.length interior_and_joiner - 1) interior_and_joiner
          in
          List.iter (fun v -> check "interior off-tree" false (Tree.is_on_tree t v)) interior
      | [], _ -> Alcotest.fail "empty attach path")
    joiners

(* -- SMRP selection ---------------------------------------------------- *)

let select_min_shr_within_bound () =
  let mk merge shr total =
    {
      Smrp.merge;
      attach_nodes = [];
      attach_edges = [];
      attach_delay = 0.0;
      total_delay = total;
      shr;
    }
  in
  let cands = [ mk 1 3 1.0; mk 2 0 1.25; mk 3 1 1.05 ] in
  (* Bound 1.3: all pass; min SHR is merge 2. *)
  let c = Option.get (Smrp.select ~d_thresh:0.3 ~spf_distance:1.0 cands) in
  check_int "min SHR wins" 2 c.Smrp.merge;
  (* Bound 1.1: merge 2 is filtered; merge 3 wins. *)
  let c = Option.get (Smrp.select ~d_thresh:0.1 ~spf_distance:1.0 cands) in
  check_int "bounded min SHR" 3 c.Smrp.merge;
  (* Bound 1.0: only merge 1 passes. *)
  let c = Option.get (Smrp.select ~d_thresh:0.0 ~spf_distance:1.0 cands) in
  check_int "strict bound" 1 c.Smrp.merge

let select_tie_breaks () =
  let mk merge shr total =
    {
      Smrp.merge;
      attach_nodes = [];
      attach_edges = [];
      attach_delay = 0.0;
      total_delay = total;
      shr;
    }
  in
  let c =
    Option.get (Smrp.select ~d_thresh:1.0 ~spf_distance:1.0 [ mk 4 1 1.5; mk 2 1 1.2; mk 9 1 1.2 ])
  in
  check_int "shr tie -> shorter delay, then lower id" 2 c.Smrp.merge

let select_fallback_when_nothing_bounded () =
  let mk merge total =
    {
      Smrp.merge;
      attach_nodes = [];
      attach_edges = [];
      attach_delay = 0.0;
      total_delay = total;
      shr = merge;
    }
  in
  let c = Option.get (Smrp.select ~d_thresh:0.0 ~spf_distance:0.1 [ mk 1 5.0; mk 2 4.0 ]) in
  check_int "lowest delay fallback" 2 c.Smrp.merge;
  check "empty gives none" true (Smrp.select ~d_thresh:0.3 ~spf_distance:1.0 [] = None)

let select_rejects_negative_threshold () =
  Alcotest.check_raises "negative" (Invalid_argument "Smrp.select: d_thresh must be non-negative")
    (fun () -> ignore (Smrp.select ~d_thresh:(-0.1) ~spf_distance:1.0 []))

let select_rejects_nan_threshold () =
  (* NaN fails every bound comparison, so every join would take the
     lowest-delay fallback. *)
  let rejects name f =
    match f () with
    | _ -> Alcotest.failf "%s: accepted" name
    | exception Invalid_argument _ -> ()
  in
  let g = Fixtures.line 3 in
  rejects "select" (fun () -> ignore (Smrp.select ~d_thresh:nan ~spf_distance:1.0 []));
  rejects "attach_path" (fun () ->
      let t = Tree.create g ~source:0 in
      ignore (Smrp.attach_path ~d_thresh:nan t 2 ~spf:(Smrp.source_spf t)));
  rejects "build" (fun () -> ignore (Smrp.build ~d_thresh:nan g ~source:0 ~members:[ 2 ]))

(* -- SMRP joins -------------------------------------------------------- *)

let smrp_zero_threshold_matches_spf_delay () =
  (* With D_thresh = 0 every selected path must have the unicast shortest
     delay. *)
  let rng = Rng.create 17 in
  let topo = Waxman.generate rng ~n:60 ~alpha:0.2 ~beta:0.2 in
  let g = topo.Waxman.graph in
  let members = Smrp_rng.Rng.sample_without_replacement rng 12 60 in
  let source = List.hd members in
  let t = Smrp.build ~d_thresh:0.0 g ~source ~members:(List.tl members) in
  List.iter
    (fun m ->
      let spf = Option.get (Smrp.spf_distance t m) in
      check "delay equals SPF" true (Tree.delay_to_source t m <= spf +. 1e-9))
    (List.tl members);
  assert_valid t

let smrp_join_on_tree_node () =
  let g = Fixtures.line 4 in
  let t = Smrp.build g ~source:0 ~members:[ 3 ] in
  Smrp.join t 1;
  check "1 is member" true (Tree.is_member t 1);
  check_int "no new edges" 3 (List.length (Tree.tree_edges t));
  assert_valid t

let smrp_member_delay_at_least_spf () =
  let rng = Rng.create 23 in
  let topo = Waxman.generate rng ~n:80 ~alpha:0.2 ~beta:0.2 in
  let g = topo.Waxman.graph in
  let sample = Smrp_rng.Rng.sample_without_replacement rng 20 80 in
  let source = List.hd sample in
  let t = Smrp.build ~d_thresh:0.3 g ~source ~members:(List.tl sample) in
  List.iter
    (fun m ->
      let spf = Option.get (Smrp.spf_distance t m) in
      check "tree delay >= unicast shortest" true (Tree.delay_to_source t m >= spf -. 1e-9))
    (List.tl sample);
  assert_valid t

let smrp_build_deterministic () =
  let build () =
    let rng = Rng.create 31 in
    let topo = Waxman.generate rng ~n:50 ~alpha:0.2 ~beta:0.2 in
    let members = Smrp_rng.Rng.sample_without_replacement rng 10 50 in
    let t = Smrp.build topo.Waxman.graph ~source:(List.hd members) ~members:(List.tl members) in
    (Tree.tree_edges t, Tree.members t)
  in
  check "same tree" true (build () = build ())

(* -- Properties -------------------------------------------------------- *)

let random_scene seed =
  let rng = Rng.create seed in
  let n = 20 + Rng.int rng 60 in
  let topo = Waxman.generate rng ~n ~alpha:0.2 ~beta:0.2 in
  let k = 2 + Rng.int rng (min 15 (n - 2)) in
  let sample = Smrp_rng.Rng.sample_without_replacement rng (k + 1) n in
  (topo.Waxman.graph, List.hd sample, List.tl sample)

let qcheck_smrp_tree_valid =
  QCheck.Test.make ~name:"SMRP trees always validate with all members attached" ~count:150
    QCheck.small_int (fun seed ->
      let g, source, members = random_scene seed in
      let t = Smrp.build ~d_thresh:0.3 g ~source ~members in
      Tree.validate t = Ok ()
      && List.for_all (Tree.is_member t) members
      && Tree.member_count t = List.length members)

let qcheck_spf_tree_valid =
  QCheck.Test.make ~name:"SPF trees always validate and follow shortest delays" ~count:150
    QCheck.small_int (fun seed ->
      let g, source, members = random_scene seed in
      let t = Spf.build g ~source ~members in
      Tree.validate t = Ok ()
      && List.for_all
           (fun m ->
             let spf = Option.get (Smrp.spf_distance t m) in
             abs_float (Tree.delay_to_source t m -. spf) < 1e-9)
           members)

let qcheck_smrp_shr_not_worse =
  QCheck.Test.make ~name:"SMRP members never merge at higher SHR than joining the SPF way"
    ~count:100 QCheck.small_int (fun seed ->
      (* At join time SMRP picks the minimum-SHR candidate within the bound;
         re-joining the final tree must never find the recorded structure
         invalid. Weak but cheap invariant: total SHR sum is finite and all
         members' SHR are consistent with Eq. 2 (checked via path walk). *)
      let g, source, members = random_scene seed in
      let t = Smrp.build ~d_thresh:0.3 g ~source ~members in
      List.for_all
        (fun m ->
          let by_walk =
            List.fold_left
              (fun acc v -> if v = source then acc else acc + Tree.subtree_members t v)
              0 (Tree.path_to_source t m)
          in
          by_walk = Tree.shr t m)
        members)

(* The list selection the query scheme keeps, against the naive oracle:
   random candidate lists in ascending merge order, with SHR ties, delays
   tied within the 1e-9 slack, and bounds that admit no candidate. *)
let qcheck_select_matches_oracle =
  QCheck.Test.make ~name:"Smrp.select picks what Oracle.naive_select picks" ~count:1000
    QCheck.small_int (fun seed ->
      let rng = Rng.create seed in
      let delays =
        [| 1.0; 1.0 +. 4e-10; 1.0 +. 9e-10; 1.0 +. 2e-9; 1.25; 1.3; 1.3 +. 5e-10; 2.0 |]
      in
      let merge = ref (-1) in
      let cands =
        List.init (Rng.int rng 9) (fun _ ->
            merge := !merge + 1 + Rng.int rng 3;
            (!merge, Rng.int rng 3, Rng.pick rng delays))
      in
      let d_thresh = Rng.pick rng [| 0.0; 0.1; 0.3 |] in
      let spf_distance = Rng.pick rng [| 0.5; 1.0; 1.0 +. 5e-10; 1.5 |] in
      let prod =
        Smrp.select ~d_thresh ~spf_distance
          (List.map
             (fun (merge, shr, total_delay) ->
               {
                 Smrp.merge;
                 attach_nodes = [];
                 attach_edges = [];
                 attach_delay = 0.0;
                 total_delay;
                 shr;
               })
             cands)
      in
      let naive =
        Oracle.naive_select ~d_thresh ~spf_distance
          (List.map
             (fun (merge, shr, total_delay) ->
               {
                 Oracle.merge;
                 attach_nodes = [];
                 attach_edges = [];
                 attach_delay = 0.0;
                 total_delay;
                 shr;
               })
             cands)
      in
      Option.map (fun c -> c.Smrp.merge) prod = Option.map (fun c -> c.Oracle.merge) naive)

let () =
  Alcotest.run "protocols"
    [
      ( "spf",
        [
          Alcotest.test_case "line build" `Quick spf_line;
          Alcotest.test_case "merges at first on-tree node" `Quick spf_merges_at_first_on_tree_node;
          Alcotest.test_case "attach path for on-tree node" `Quick spf_attach_path_on_tree;
          Alcotest.test_case "errors" `Quick spf_errors;
          Alcotest.test_case "leave round trip" `Quick spf_leave_roundtrip;
        ] );
      ( "candidates",
        [
          Alcotest.test_case "fig1 candidate set" `Quick candidates_on_fig1;
          Alcotest.test_case "interiors avoid the tree" `Quick candidate_interiors_avoid_tree;
        ] );
      ( "selection",
        [
          Alcotest.test_case "min SHR within bound" `Quick select_min_shr_within_bound;
          Alcotest.test_case "tie breaks" `Quick select_tie_breaks;
          Alcotest.test_case "fallback" `Quick select_fallback_when_nothing_bounded;
          Alcotest.test_case "rejects negative threshold" `Quick select_rejects_negative_threshold;
          Alcotest.test_case "rejects NaN threshold" `Quick select_rejects_nan_threshold;
        ] );
      ( "smrp_join",
        [
          Alcotest.test_case "zero threshold stays shortest" `Quick smrp_zero_threshold_matches_spf_delay;
          Alcotest.test_case "join of on-tree node" `Quick smrp_join_on_tree_node;
          Alcotest.test_case "delay at least SPF" `Quick smrp_member_delay_at_least_spf;
          Alcotest.test_case "deterministic build" `Quick smrp_build_deterministic;
        ] );
      ( "properties",
        [
          qcheck_case qcheck_smrp_tree_valid;
          qcheck_case qcheck_spf_tree_valid;
          qcheck_case qcheck_smrp_shr_not_worse;
          qcheck_case qcheck_select_matches_oracle;
        ] );
    ]
