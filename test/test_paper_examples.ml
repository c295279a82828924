(* The worked examples of the paper, asserted step by step:
   - Figure 1: SPF tree over {C, D}; SHR values; local vs global detour when
     L_AD fails.
   - Figure 4: E, G, F join under SMRP with D_thresh = 0.3 and pick the
     paths the text walks through.
   - Figure 5: F's admission triggers reshaping at E, which switches to
     E-C-A-S. *)

module Fixtures = Smrp_topology.Fixtures
module Graph = Smrp_graph.Graph
module Tree = Smrp_core.Tree
module Spf = Smrp_core.Spf
module Smrp = Smrp_core.Smrp
module Reshape = Smrp_core.Reshape
module Failure = Smrp_core.Failure
module Recovery = Smrp_core.Recovery
module Oracle = Smrp_check.Oracle

(* A global detour bounded by the source SPF over the network [f] leaves. *)
let global_detour t f ~member =
  Recovery.global_detour t f ~member
    ~spf:(Smrp.source_spf ~filters:(Failure.filters (Tree.graph t) f) t)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))
let check_list = Alcotest.(check (list int))

let edge_id g u v =
  match Graph.edge_between g u v with
  | Some e -> e.Graph.id
  | None -> Alcotest.fail "expected edge"

(* -- Figure 1 ---------------------------------------------------------- *)

let fig1_spf_tree () =
  let f = Fixtures.fig1 () in
  let t = Spf.build f.Fixtures.graph ~source:f.Fixtures.s ~members:[ f.Fixtures.c; f.Fixtures.d ] in
  (match Tree.validate t with Ok () -> () | Error e -> Alcotest.fail e);
  (* Both members reach S through A, as drawn in Fig. 1(a). *)
  check_list "C's path" [ f.Fixtures.c; f.Fixtures.a; f.Fixtures.s ] (Tree.path_to_source t f.Fixtures.c);
  check_list "D's path" [ f.Fixtures.d; f.Fixtures.a; f.Fixtures.s ] (Tree.path_to_source t f.Fixtures.d)

let fig1_shr () =
  let f = Fixtures.fig1 () in
  let t = Spf.build f.Fixtures.graph ~source:f.Fixtures.s ~members:[ f.Fixtures.c; f.Fixtures.d ] in
  (* SHR(S,C) = N_A + N_C = 2 + 1 = 3, the worked example below Eq. (1). *)
  check_int "SHR(S,C)" 3 (Tree.shr t f.Fixtures.c);
  check_int "SHR(S,D)" 3 (Tree.shr t f.Fixtures.d);
  check_int "SHR(S,A)" 2 (Tree.shr t f.Fixtures.a);
  check_int "SHR(S,S)" 0 (Tree.shr t f.Fixtures.s)

let fig1_detours () =
  let f = Fixtures.fig1 () in
  let g = f.Fixtures.graph in
  let t = Spf.build g ~source:f.Fixtures.s ~members:[ f.Fixtures.c; f.Fixtures.d ] in
  let fail = Failure.Link (edge_id g f.Fixtures.a f.Fixtures.d) in
  (* Local detour: D re-attaches at C over L_CD, so RD_D = 2 (§3.1). *)
  let local = Option.get (Recovery.local_detour t fail ~member:f.Fixtures.d) in
  check_int "local merge is C" f.Fixtures.c local.Recovery.merge;
  check_float "RD_D = 2" 2.0 local.Recovery.recovery_distance;
  check_float "local e2e delay" 4.0 local.Recovery.new_total_delay;
  (* Global detour: the new SPF path D-B-S is entirely new links, RD = 3,
     but the end-to-end delay is the smaller 3. *)
  let global = Option.get (global_detour t fail ~member:f.Fixtures.d) in
  check_int "global merge is S" f.Fixtures.s global.Recovery.merge;
  check_list "global path" [ f.Fixtures.d; f.Fixtures.b; f.Fixtures.s ] global.Recovery.path_nodes;
  check_float "global RD = 3" 3.0 global.Recovery.recovery_distance;
  check_float "global e2e delay" 3.0 global.Recovery.new_total_delay;
  check "local detour is shorter" true
    (local.Recovery.recovery_distance < global.Recovery.recovery_distance)

(* -- Figure 4 ---------------------------------------------------------- *)

let build_fig4_tree f =
  let t = Tree.create f.Fixtures.graph ~source:f.Fixtures.s in
  Smrp.join ~d_thresh:0.3 t f.Fixtures.e;
  Smrp.join ~d_thresh:0.3 t f.Fixtures.g;
  Smrp.join ~d_thresh:0.3 t f.Fixtures.f;
  t

let fig4_e_joins_shortest () =
  let f = Fixtures.fig4 () in
  let t = Tree.create f.Fixtures.graph ~source:f.Fixtures.s in
  Smrp.join ~d_thresh:0.3 t f.Fixtures.e;
  (* "The join procedure of E is trivial, and it selects the shortest path". *)
  check_list "E's path" [ f.Fixtures.e; f.Fixtures.d; f.Fixtures.a; f.Fixtures.s ]
    (Tree.path_to_source t f.Fixtures.e);
  (* "node D has SHR(S,D) = 2". *)
  check_int "SHR(S,D) after E" 2 (Tree.shr t f.Fixtures.d)

let fig4_g_avoids_sharing () =
  let f = Fixtures.fig4 () in
  let t = Tree.create f.Fixtures.graph ~source:f.Fixtures.s in
  Smrp.join ~d_thresh:0.3 t f.Fixtures.e;
  Smrp.join ~d_thresh:0.3 t f.Fixtures.g;
  (* "G chooses path G→B→S even though G→F→D→A→S has shorter end-to-end
     delay." *)
  check_list "G's path" [ f.Fixtures.g; f.Fixtures.b; f.Fixtures.s ]
    (Tree.path_to_source t f.Fixtures.g)

let fig4_f_bounded_by_dthresh () =
  let f = Fixtures.fig4 () in
  let t = build_fig4_tree f in
  (* "Receiver F selects F→D→A→S.  F does not choose F→B→S and F→G→B→S
     because their path lengths exceed the bound." *)
  check_list "F's path" [ f.Fixtures.f; f.Fixtures.d; f.Fixtures.a; f.Fixtures.s ]
    (Tree.path_to_source t f.Fixtures.f);
  (* Condition I's example: SHR(S,D) rose from 2 to 4 when F joined. *)
  check_int "SHR(S,D) after F" 4 (Tree.shr t f.Fixtures.d);
  match Tree.validate t with Ok () -> () | Error e -> Alcotest.fail e

let fig4_f_candidates_pinned () =
  (* Pin the full candidate list F computes after E and G have joined: the
     merge points the text enumerates (D, B and G), in ascending merge-id
     order, with every field of the record, from the exhaustive reference
     scan.  Then the join decision: at D_thresh = 0.3 only D is bounded, and
     Smrp.attach_path must return D's connection. *)
  let f = Fixtures.fig4 () in
  let g = f.Fixtures.graph in
  let t = Tree.create g ~source:f.Fixtures.s in
  Smrp.join ~d_thresh:0.3 t f.Fixtures.e;
  Smrp.join ~d_thresh:0.3 t f.Fixtures.g;
  let cands = Oracle.naive_candidates t ~joiner:f.Fixtures.f in
  check_list "merge points, ascending"
    [ f.Fixtures.b; f.Fixtures.d; f.Fixtures.g ]
    (List.map (fun c -> c.Oracle.merge) cands);
  let pin name c ~merge ~other ~attach_delay ~total_delay ~shr =
    check_int (name ^ " merge") merge c.Oracle.merge;
    check_list (name ^ " attach nodes") [ merge; f.Fixtures.f ] c.Oracle.attach_nodes;
    check_list (name ^ " attach edges") [ edge_id g merge other ] c.Oracle.attach_edges;
    check_float (name ^ " attach delay") attach_delay c.Oracle.attach_delay;
    check_float (name ^ " total delay") total_delay c.Oracle.total_delay;
    check_int (name ^ " shr") shr c.Oracle.shr
  in
  (match cands with
  | [ cb; cd; cg ] ->
      (* B: one hop over L_BF; delay to S is 2.5; only G shares S-B. *)
      pin "B" cb ~merge:f.Fixtures.b ~other:f.Fixtures.f ~attach_delay:1.5 ~total_delay:4.0
        ~shr:1;
      (* D: one hop over L_DF; SHR(S,D) = 2 after E joined. *)
      pin "D" cd ~merge:f.Fixtures.d ~other:f.Fixtures.f ~attach_delay:1.0 ~total_delay:3.0
        ~shr:2;
      (* G: one hop over L_FG; G's own path G-B-S gives delay 4.5. *)
      pin "G" cg ~merge:f.Fixtures.g ~other:f.Fixtures.f ~attach_delay:1.0 ~total_delay:5.5
        ~shr:2
  | _ -> Alcotest.fail "expected exactly three candidates");
  Alcotest.(check (pair (list int) (list int)))
    "F's join decision"
    ([ f.Fixtures.d; f.Fixtures.f ], [ edge_id g f.Fixtures.d f.Fixtures.f ])
    (Smrp.attach_path ~d_thresh:0.3 t f.Fixtures.f ~spf:(Smrp.source_spf t))

let fig4_f_would_take_b_with_larger_threshold () =
  (* Sanity check of the bound's role: with a permissive D_thresh, F prefers
     the less-shared merge point B (SHR 1 < 2). *)
  let f = Fixtures.fig4 () in
  let t = Tree.create f.Fixtures.graph ~source:f.Fixtures.s in
  Smrp.join ~d_thresh:1.0 t f.Fixtures.e;
  Smrp.join ~d_thresh:1.0 t f.Fixtures.g;
  Smrp.join ~d_thresh:1.0 t f.Fixtures.f;
  check_list "F's path under D_thresh = 1"
    [ f.Fixtures.f; f.Fixtures.b; f.Fixtures.s ]
    (Tree.path_to_source t f.Fixtures.f)

(* -- Figure 5 ---------------------------------------------------------- *)

let fig5_reshaping_at_e () =
  let f = Fixtures.fig4 () in
  let t = build_fig4_tree f in
  (* Condition I detects the SHR drift at E (its upstream SHR grew by 2 when
     F joined). *)
  let m = Reshape.monitor (Tree.create f.Fixtures.graph ~source:f.Fixtures.s) in
  ignore m;
  let switched = Reshape.try_reshape ~d_thresh:0.3 t f.Fixtures.e in
  check "E switches" true switched;
  (* "E completes another path selection process by selecting E→C→A→S." *)
  check_list "E's new path"
    [ f.Fixtures.e; f.Fixtures.c; f.Fixtures.a; f.Fixtures.s ]
    (Tree.path_to_source t f.Fixtures.e);
  (match Tree.validate t with Ok () -> () | Error e -> Alcotest.fail e);
  (* After the switch the old relay D keeps only F downstream. *)
  check_int "N_D after reshape" 1 (Tree.subtree_members t f.Fixtures.d);
  check_int "SHR(S,D) after reshape" 3 (Tree.shr t f.Fixtures.d)

let fig5_condition_i_monitor () =
  let f = Fixtures.fig4 () in
  let t = Tree.create f.Fixtures.graph ~source:f.Fixtures.s in
  Smrp.join ~d_thresh:0.3 t f.Fixtures.e;
  Smrp.join ~d_thresh:0.3 t f.Fixtures.g;
  let m = Reshape.monitor t in
  let shr_old = Tree.shr t f.Fixtures.e in
  Smrp.join ~d_thresh:0.3 t f.Fixtures.f;
  (* F's admission raises SHR(S,E) from 2 to 4: drift of 2 > threshold 1. *)
  check_int "E drifts by 2" 2 (Tree.shr t f.Fixtures.e - shr_old);
  let switches = Reshape.run_condition_i ~d_thresh:0.3 ~threshold:1 m t in
  check "condition I switches E" true (switches >= 1);
  check_list "E's new path"
    [ f.Fixtures.e; f.Fixtures.c; f.Fixtures.a; f.Fixtures.s ]
    (Tree.path_to_source t f.Fixtures.e)

let () =
  Alcotest.run "paper_examples"
    [
      ( "figure1",
        [
          Alcotest.test_case "SPF tree shape" `Quick fig1_spf_tree;
          Alcotest.test_case "SHR worked example" `Quick fig1_shr;
          Alcotest.test_case "local vs global detour" `Quick fig1_detours;
        ] );
      ( "figure4",
        [
          Alcotest.test_case "E joins by shortest path" `Quick fig4_e_joins_shortest;
          Alcotest.test_case "G avoids the shared subtree" `Quick fig4_g_avoids_sharing;
          Alcotest.test_case "F is bounded by D_thresh" `Quick fig4_f_bounded_by_dthresh;
          Alcotest.test_case "F's candidate list pinned" `Quick fig4_f_candidates_pinned;
          Alcotest.test_case "larger D_thresh frees F" `Quick fig4_f_would_take_b_with_larger_threshold;
        ] );
      ( "figure5",
        [
          Alcotest.test_case "reshaping switches E to C" `Quick fig5_reshaping_at_e;
          Alcotest.test_case "condition I monitor" `Quick fig5_condition_i_monitor;
        ] );
    ]
