(* Tree reshaping (§3.2.3) beyond the Figure 5 walkthrough. *)

module Graph = Smrp_graph.Graph
module Dijkstra = Smrp_graph.Dijkstra
module Rng = Smrp_rng.Rng
module Waxman = Smrp_topology.Waxman
module Fixtures = Smrp_topology.Fixtures
module Tree = Smrp_core.Tree
module Spf = Smrp_core.Spf
module Smrp = Smrp_core.Smrp
module Reshape = Smrp_core.Reshape
module Failure = Smrp_core.Failure
module Oracle = Smrp_check.Oracle

(* Property tests run with a pinned PRNG state so failures are
   reproducible run over run. *)
let qcheck_case t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 424242 |]) t

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let assert_valid t = match Tree.validate t with Ok () -> () | Error e -> Alcotest.fail e

let random_scene seed =
  let rng = Rng.create seed in
  let n = 20 + Rng.int rng 60 in
  let topo = Waxman.generate rng ~n ~alpha:0.2 ~beta:0.2 in
  let k = 2 + Rng.int rng (min 15 (n - 2)) in
  let sample = Smrp_rng.Rng.sample_without_replacement rng (k + 1) n in
  (topo.Waxman.graph, List.hd sample, List.tl sample)

let reshape_noop_when_stable () =
  let f = Fixtures.fig4 () in
  let t = Tree.create f.Fixtures.graph ~source:f.Fixtures.s in
  Smrp.join ~d_thresh:0.3 t f.Fixtures.e;
  Smrp.join ~d_thresh:0.3 t f.Fixtures.g;
  Smrp.join ~d_thresh:0.3 t f.Fixtures.f;
  check "first reshape switches" true (Reshape.try_reshape ~d_thresh:0.3 t f.Fixtures.e);
  check "second reshape is a no-op" false (Reshape.try_reshape ~d_thresh:0.3 t f.Fixtures.e);
  assert_valid t

let reshape_preserves_membership () =
  let g, source, members = random_scene 5 in
  let t = Smrp.build ~d_thresh:0.3 g ~source ~members in
  let before = Tree.members t in
  ignore (Reshape.stabilize ~d_thresh:0.3 t);
  Alcotest.(check (list int)) "members unchanged" before (Tree.members t);
  assert_valid t

let reshape_rejected_for_bad_nodes () =
  let g = Fixtures.line 3 in
  let t = Spf.build g ~source:0 ~members:[ 2 ] in
  Alcotest.check_raises "source" (Invalid_argument "Reshape.try_reshape: cannot reshape the source")
    (fun () -> ignore (Reshape.try_reshape t 0));
  Alcotest.check_raises "off-tree" (Invalid_argument "Reshape.try_reshape: off-tree node")
    (fun () ->
      let g2 = Fixtures.line 4 in
      let t2 = Spf.build g2 ~source:0 ~members:[ 1 ] in
      ignore (Reshape.try_reshape t2 3))

let stabilize_terminates () =
  let g, source, members = random_scene 8 in
  let t = Smrp.build ~d_thresh:0.3 g ~source ~members in
  let stats = Reshape.stabilize ~d_thresh:0.3 ~max_rounds:10 t in
  check "bounded rounds" true (stats.Reshape.rounds <= 10);
  assert_valid t

let stabilize_does_not_worsen_shr () =
  (* The total SHR over members must not increase: every switch strictly
     reduces the (adjusted) merge SHR. *)
  let total_shr t = List.fold_left (fun acc m -> acc + Tree.shr t m) 0 (Tree.members t) in
  let g, source, members = random_scene 9 in
  let t = Smrp.build ~d_thresh:0.3 g ~source ~members in
  let before = total_shr t in
  ignore (Reshape.stabilize ~d_thresh:0.3 t);
  check "sum of member SHR not increased" true (total_shr t <= before)

let monitor_tracks_drift () =
  let f = Fixtures.fig4 () in
  let t = Tree.create f.Fixtures.graph ~source:f.Fixtures.s in
  Smrp.join ~d_thresh:0.3 t f.Fixtures.e;
  let m = Reshape.monitor t in
  let e_path = Tree.path_to_source t f.Fixtures.e in
  check_int "no drift initially" 0 (Reshape.run_condition_i ~d_thresh:0.3 ~threshold:0 m t);
  check "nothing moved" true (Tree.path_to_source t f.Fixtures.e = e_path);
  Smrp.join ~d_thresh:0.3 t f.Fixtures.g;
  Smrp.join ~d_thresh:0.3 t f.Fixtures.f;
  check_int "drift detected and acted on" 1
    (Reshape.run_condition_i ~d_thresh:0.3 ~threshold:1 m t)

let condition_i_refreshes_snapshots () =
  (* A triggered node that does not switch still records its SHR as its new
     SHR^old.  Member 2 hangs off relay 1 and drifts by 2 when members 3
     and 4 join there; its other merge point, relay 5, carries three
     members, so the first run keeps it.  Once two of them leave, 5 is the
     better merge point while 2's SHR stays put: the refreshed snapshot
     keeps the second run quiet, where a stale one would trigger 2 again
     and switch it. *)
  let g = Graph.create 9 in
  let link u v = Graph.add_edge g u v 1.0 in
  let e01 = link 0 1 in
  let e12 = link 1 2 in
  let e13 = link 1 3 in
  let e14 = link 1 4 in
  let e05 = link 0 5 in
  let e56 = link 5 6 in
  let e57 = link 5 7 in
  let e58 = link 5 8 in
  ignore (link 5 2);
  let t = Tree.create g ~source:0 in
  let subscribe ~nodes ~edges =
    Tree.graft t ~nodes ~edges;
    Tree.add_member t (List.nth nodes (List.length nodes - 1))
  in
  subscribe ~nodes:[ 0; 1; 2 ] ~edges:[ e01; e12 ];
  subscribe ~nodes:[ 0; 5; 6 ] ~edges:[ e05; e56 ];
  subscribe ~nodes:[ 5; 7 ] ~edges:[ e57 ];
  subscribe ~nodes:[ 5; 8 ] ~edges:[ e58 ];
  let m = Reshape.monitor t in
  let shr_old = Tree.shr t 2 in
  subscribe ~nodes:[ 1; 3 ] ~edges:[ e13 ];
  subscribe ~nodes:[ 1; 4 ] ~edges:[ e14 ];
  let shr_now = Tree.shr t 2 in
  check "2 drifted past the threshold" true (shr_now - shr_old > 1);
  check_int "triggered, but no better merge point" 0
    (Reshape.run_condition_i ~d_thresh:0.3 ~threshold:1 m t);
  Tree.remove_member t 7;
  Tree.remove_member t 8;
  check_int "the leaves do not move 2's SHR" shr_now (Tree.shr t 2);
  check_int "refreshed snapshots keep 2 quiet" 0
    (Reshape.run_condition_i ~d_thresh:0.3 ~threshold:1 m t);
  check "yet 2 would now switch to 5" true (Reshape.try_reshape ~d_thresh:0.3 t 2);
  Alcotest.(check (list int)) "via 5" [ 2; 5; 0 ] (Tree.path_to_source t 2);
  assert_valid t

let condition_i_counts_switches () =
  let f = Fixtures.fig4 () in
  let t = Tree.create f.Fixtures.graph ~source:f.Fixtures.s in
  Smrp.join ~d_thresh:0.3 t f.Fixtures.e;
  let m = Reshape.monitor t in
  Smrp.join ~d_thresh:0.3 t f.Fixtures.g;
  Smrp.join ~d_thresh:0.3 t f.Fixtures.f;
  let switches = Reshape.run_condition_i ~d_thresh:0.3 ~threshold:1 m t in
  check_int "one switch (E)" 1 switches;
  assert_valid t

let condition_i_threshold_boundary () =
  (* §3.2.3 Condition I fires on drift {e strictly greater} than the
     threshold: E, whose SHR grows by exactly [k] and which switches once
     triggered, must stay put at [threshold = k] and move at
     [threshold = k - 1]. *)
  let f = Fixtures.fig4 () in
  let scene () =
    let t = Tree.create f.Fixtures.graph ~source:f.Fixtures.s in
    Smrp.join ~d_thresh:0.3 t f.Fixtures.e;
    let m = Reshape.monitor t in
    let shr_old = Tree.shr t f.Fixtures.e in
    Smrp.join ~d_thresh:0.3 t f.Fixtures.g;
    Smrp.join ~d_thresh:0.3 t f.Fixtures.f;
    (t, m, Tree.shr t f.Fixtures.e - shr_old)
  in
  let t, m, drift = scene () in
  check "E actually drifted" true (drift > 0);
  let e_path = Tree.path_to_source t f.Fixtures.e in
  check_int "exactly at the drift it stays quiet" 0
    (Reshape.run_condition_i ~d_thresh:0.3 ~threshold:drift m t);
  check "E stayed" true (Tree.path_to_source t f.Fixtures.e = e_path);
  let t, m, _ = scene () in
  check_int "below the drift it fires" 1
    (Reshape.run_condition_i ~d_thresh:0.3 ~threshold:(drift - 1) m t);
  check "E moved" true (Tree.path_to_source t f.Fixtures.e <> e_path)

(* A 4-node scene where reshaping wants the link that just failed: member 2
   hangs off the slow branch 0-3-2 (delay 6) while 0-1-2 (delay 2) exists. *)
let slow_branch_scene () =
  let g = Graph.create 4 in
  let _e01 = Graph.add_edge g 0 1 1.0 in
  let e12 = Graph.add_edge g 1 2 1.0 in
  let e03 = Graph.add_edge g 0 3 1.0 in
  let e32 = Graph.add_edge g 3 2 5.0 in
  let t = Tree.create g ~source:0 in
  Tree.graft t ~nodes:[ 0; 3; 2 ] ~edges:[ e03; e32 ];
  Tree.add_member t 2;
  (g, t, e12)

let condition_ii_respects_concurrent_failure () =
  (* Without a failure the Condition-II sweep switches member 2 onto the
     fast path through node 1... *)
  let _, t, _ = slow_branch_scene () in
  let stats = Reshape.stabilize ~d_thresh:0.3 t in
  check "switches to the fast path" true (stats.Reshape.switches >= 1);
  check "now relayed by 1" true (Tree.is_on_tree t 1);
  assert_valid t;
  (* ...but when the timer fires while link 1-2 is down, the sweep must not
     route through the failed component: the member stays on the slow
     branch and the tree never touches the dead link. *)
  let module Failure = Smrp_core.Failure in
  let g, t, e12 = slow_branch_scene () in
  let failure = Failure.Link e12 in
  let stats = Reshape.stabilize ~d_thresh:0.3 ~failure t in
  check_int "no switch available" 0 stats.Reshape.switches;
  check "member still served" true (Tree.is_member t 2);
  List.iter
    (fun v ->
      match Tree.parent_edge t v with
      | Some e -> check "dead link untouched" true (Failure.edge_ok g failure e)
      | None -> ())
    (Tree.on_tree_nodes t);
  assert_valid t

let reshape_respects_bound () =
  (* After any reshape, each member still satisfies its D_thresh bound
     unless it was attached by fallback; with a connected Waxman graph and
     0.3 bound the switched nodes must respect it. *)
  let g, source, members = random_scene 10 in
  let t = Smrp.build ~d_thresh:0.3 g ~source ~members in
  ignore (Reshape.stabilize ~d_thresh:0.3 t);
  List.iter
    (fun m ->
      let spf = Option.get (Smrp.spf_distance t m) in
      check "not absurdly long" true (Tree.delay_to_source t m <= (2.0 *. spf) +. 1e-9))
    members

let qcheck_stabilize_valid =
  QCheck.Test.make ~name:"stabilize keeps trees valid" ~count:100 QCheck.small_int (fun seed ->
      let g, source, members = random_scene seed in
      let t = Smrp.build ~d_thresh:0.3 g ~source ~members in
      ignore (Reshape.stabilize ~d_thresh:0.3 t);
      Tree.validate t = Ok () && List.for_all (Tree.is_member t) members)

(* Differential oracle for [stabilize] and [try_reshape]: the §3.2.3
   decision re-made from scratch, sharing no code with [Reshape] or with
   [Smrp]'s candidate search.  Unit link delays keep every float sum exact,
   so the two must agree bit for bit — same switch decisions, same rounds,
   same final edge set. *)
let unit_scene seed =
  let rng = Rng.create (seed + 77) in
  let n = 20 + Rng.int rng 60 in
  let topo = Waxman.generate ~link_delay:`Unit rng ~n ~alpha:0.2 ~beta:0.2 in
  let k = 2 + Rng.int rng (min 15 (n - 2)) in
  let sample = Smrp_rng.Rng.sample_without_replacement rng (k + 1) n in
  (topo.Waxman.graph, List.hd sample, List.tl sample)

(* One reshape of node [r].  The detached tree is a copy with every member
   of [r]'s subtree removed, which prunes the subtree and the relay chain
   above it exactly as [Tree.detach_branch] does, so [Oracle.recompute_shr]
   on it is the post-detach SHR.  The candidates are the exhaustive
   reference scan from [r] with its subtree excluded; D_SPF is a reference
   search from [r].  [r] switches to the best bounded candidate when its
   SHR is strictly smaller than the current attachment's, or equal with a
   delay smaller by more than 1e-9; the switch is a detach and attach on
   the real tree. *)
let oracle_reshape ?failure t r =
  let g = Tree.graph t in
  let node_ok v = match failure with None -> true | Some f -> Failure.node_ok f v in
  let edge_ok e = match failure with None -> true | Some f -> Failure.edge_ok g f e in
  let spf =
    if node_ok r then
      Dijkstra.distance (Dijkstra.run_reference ~node_ok ~edge_ok g ~source:r) (Tree.source t)
    else None
  in
  match spf with
  | None -> false
  | Some spf_distance ->
      let in_sub = Array.make (Graph.node_count g) false in
      let rec mark v =
        in_sub.(v) <- true;
        List.iter mark (Tree.children t v)
      in
      mark r;
      let detached = Tree.copy t in
      Array.iteri
        (fun v sub -> if sub && Tree.is_member detached v then Tree.remove_member detached v)
        in_sub;
      (* The current attachment: the edges of [r]'s tree path, top down, up
         to the first node the detachment keeps, which is its merge. *)
      let rec up v edges =
        if Tree.is_on_tree detached v then (v, edges)
        else up (Tree.parent_id t v) (Tree.parent_edge_id t v :: edges)
      in
      let merge, edges = up (Tree.parent_id t r) [ Tree.parent_edge_id t r ] in
      let current_total = Graph.delay_of_edges g edges +. Tree.delay_to_source detached merge in
      let current_shr = (Oracle.recompute_shr detached).(merge) in
      let bound = ((1.0 +. 0.3) *. spf_distance) +. 1e-9 in
      let bounded =
        Oracle.naive_candidates ?failure ~exclude:(fun v -> in_sub.(v) && v <> r) detached ~joiner:r
        |> List.filter (fun c -> c.Oracle.total_delay <= bound)
      in
      match Oracle.naive_select ~d_thresh:0.3 ~spf_distance bounded with
      | Some best
        when best.Oracle.shr < current_shr
             || best.Oracle.shr = current_shr
                && best.Oracle.total_delay < current_total -. 1e-9 ->
          let branch, _previous = Tree.detach_branch t ~node:r in
          Tree.attach_branch t branch ~nodes:best.Oracle.attach_nodes
            ~edges:best.Oracle.attach_edges;
          true
      | _ -> false

(* The non-source on-tree nodes, deepest first (ties to the lower id). *)
let deepest_first t =
  Tree.on_tree_nodes t
  |> List.filter (fun v -> v <> Tree.source t)
  |> List.map (fun v -> (List.length (Tree.path_to_source t v), v))
  |> List.sort (fun (d1, v1) (d2, v2) -> compare (-d1, v1) (-d2, v2))
  |> List.map snd

(* The sweep semantics spelled out: one [oracle_reshape] per node in
   deepest-first order, rounds until one switches nothing. *)
let reference_stabilize ?failure ?(max_rounds = 10) t =
  let rec go rounds switches =
    if rounds = max_rounds then { Reshape.switches; rounds }
    else begin
      let nodes = deepest_first t in
      let rs =
        List.fold_left
          (fun acc v ->
            if Tree.is_on_tree t v && v <> Tree.source t then
              if oracle_reshape ?failure t v then acc + 1 else acc
            else acc)
          0 nodes
      in
      if rs = 0 then { Reshape.switches; rounds = rounds + 1 }
      else go (rounds + 1) (switches + rs)
    end
  in
  go 0 0

let edge_sets_equal a b = List.sort compare (Tree.tree_edges a) = List.sort compare (Tree.tree_edges b)

let qcheck_stabilize_matches_reference =
  QCheck.Test.make ~name:"stabilize matches the detach-based reference sweep" ~count:60
    QCheck.small_int (fun seed ->
      let g, source, members = unit_scene seed in
      let t = Smrp.build ~d_thresh:0.3 g ~source ~members in
      let t_ref = Tree.copy t and t_new = Tree.copy t in
      let s_ref = reference_stabilize t_ref in
      let s_new = Reshape.stabilize ~d_thresh:0.3 t_new in
      s_ref = s_new && edge_sets_equal t_ref t_new && Tree.validate t_new = Ok ())

let qcheck_stabilize_matches_reference_under_failure =
  QCheck.Test.make ~name:"stabilize matches the reference sweep under link failure" ~count:40
    QCheck.small_int (fun seed ->
      let g, source, members = unit_scene seed in
      let t = Smrp.build ~d_thresh:0.3 g ~source ~members in
      let failure = Failure.Link (seed * 7 mod Graph.edge_count g) in
      let t_ref = Tree.copy t and t_new = Tree.copy t in
      let s_ref = reference_stabilize ~failure t_ref in
      let s_new = Reshape.stabilize ~d_thresh:0.3 ~failure t_new in
      s_ref = s_new && edge_sets_equal t_ref t_new && Tree.validate t_new = Ok ())

(* The sweep as a timer finds it right after a tree link fails, before any
   repair: the tree still crosses the failure, so a merge point's tree
   delay may run over the failed link while every search avoids it.  Unit
   and Euclidean delays. *)
let qcheck_stabilize_matches_reference_failed_tree_link =
  QCheck.Test.make ~name:"stabilize matches the reference sweep with a failed tree link"
    ~count:150 QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 31) in
      let n = 20 + Rng.int rng 60 in
      let link_delay = if Rng.bool rng then `Unit else `Euclidean in
      let g = (Waxman.generate ~link_delay rng ~n ~alpha:0.2 ~beta:0.2).Waxman.graph in
      let k = 2 + Rng.int rng (min 15 (n - 2)) in
      let sample = Smrp_rng.Rng.sample_without_replacement rng (k + 1) n in
      let t = Smrp.build ~d_thresh:0.3 g ~source:(List.hd sample) ~members:(List.tl sample) in
      match Tree.tree_edges t with
      | [] -> true
      | links ->
          let failure = Failure.Link (Rng.pick rng (Array.of_list links)) in
          let t_ref = Tree.copy t and t_new = Tree.copy t in
          let s_ref = reference_stabilize ~failure t_ref in
          let s_new = Reshape.stabilize ~d_thresh:0.3 ~failure t_new in
          s_ref = s_new && edge_sets_equal t_ref t_new && Tree.validate t_new = Ok ())

(* Node by node: every [try_reshape] call against one oracle step on a
   copy, on the switch decision and the resulting edge set.  Nodes are
   visited deepest first, as a sweep visits them, twice over. *)
let qcheck_try_reshape_matches_oracle =
  QCheck.Test.make ~name:"try_reshape matches one oracle step per node" ~count:60
    QCheck.small_int (fun seed ->
      let g, source, members = unit_scene seed in
      let t = Smrp.build ~d_thresh:0.3 g ~source ~members in
      let t_ref = Tree.copy t in
      let order = deepest_first t in
      List.for_all
        (fun v ->
          (not (Tree.is_on_tree t v))
          ||
          let switched = Reshape.try_reshape ~d_thresh:0.3 t v in
          switched = oracle_reshape t_ref v && edge_sets_equal t t_ref)
        (order @ order))

let qcheck_try_reshape_valid =
  QCheck.Test.make ~name:"any single reshape keeps the tree valid" ~count:100 QCheck.small_int
    (fun seed ->
      let g, source, members = random_scene seed in
      let t = Smrp.build ~d_thresh:0.3 g ~source ~members in
      List.for_all
        (fun v ->
          if Tree.is_on_tree t v && v <> source then begin
            ignore (Reshape.try_reshape ~d_thresh:0.3 t v);
            Tree.validate t = Ok ()
          end
          else true)
        (List.init (Graph.node_count g) Fun.id))

let () =
  Alcotest.run "reshape"
    [
      ( "behaviour",
        [
          Alcotest.test_case "no-op when stable" `Quick reshape_noop_when_stable;
          Alcotest.test_case "preserves membership" `Quick reshape_preserves_membership;
          Alcotest.test_case "rejects bad nodes" `Quick reshape_rejected_for_bad_nodes;
          Alcotest.test_case "stabilize terminates" `Quick stabilize_terminates;
          Alcotest.test_case "does not worsen SHR" `Quick stabilize_does_not_worsen_shr;
          Alcotest.test_case "respects the delay bound" `Quick reshape_respects_bound;
        ] );
      ( "condition_i",
        [
          Alcotest.test_case "monitor tracks drift" `Quick monitor_tracks_drift;
          Alcotest.test_case "snapshots refreshed" `Quick condition_i_refreshes_snapshots;
          Alcotest.test_case "counts switches" `Quick condition_i_counts_switches;
          Alcotest.test_case "threshold boundary is strict" `Quick condition_i_threshold_boundary;
        ] );
      ( "condition_ii",
        [
          Alcotest.test_case "timer sweep respects a concurrent failure" `Quick
            condition_ii_respects_concurrent_failure;
        ] );
      ( "properties",
        [
          qcheck_case qcheck_stabilize_valid;
          qcheck_case qcheck_try_reshape_valid;
          qcheck_case qcheck_stabilize_matches_reference;
          qcheck_case qcheck_stabilize_matches_reference_under_failure;
          qcheck_case qcheck_stabilize_matches_reference_failed_tree_link;
          qcheck_case qcheck_try_reshape_matches_oracle;
        ] );
    ]
