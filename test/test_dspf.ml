module Rng = Smrp_rng.Rng
module Graph = Smrp_graph.Graph
module Dijkstra = Smrp_graph.Dijkstra
module Dspf = Smrp_graph.Dspf
module Waxman = Smrp_topology.Waxman
module Transit_stub = Smrp_topology.Transit_stub

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* The structure under test, with the test's own record of its graph,
   source and failed elements: the reference search reads that record,
   never the structure's own overlay. *)
module Sut = struct
  type t = { spf : Dspf.t; g : Graph.t; source : int; edge_dead : bool array; node_dead : bool array }

  let create g ~source =
    let spf = Dspf.create g ~source in
    let edge_dead = Array.make (Graph.edge_count g) false in
    { spf; g; source; edge_dead; node_dead = Array.make (Graph.node_count g) false }

  let fail_edge t eid =
    Dspf.fail_edge t.spf eid;
    t.edge_dead.(eid) <- true

  let restore_edge t eid =
    Dspf.restore_edge t.spf eid;
    t.edge_dead.(eid) <- false

  let fail_node t v =
    Dspf.fail_node t.spf v;
    t.node_dead.(v) <- true

  let distance t v =
    let d = (Dspf.distances t.spf).(v) in
    if d = infinity then None else Some d
  let stats t = Dspf.stats t.spf
end

(* Exact-equality differential: after every mutation the incremental
   structure must agree with a fresh [run_reference] over the surviving
   elements — bit-identical distances, no epsilon. *)
let agree_with_reference (t : Sut.t) =
  let g = t.Sut.g in
  if t.Sut.node_dead.(t.Sut.source) then begin
    for v = 0 to Graph.node_count g - 1 do
      if Sut.distance t v <> None then
        Alcotest.failf "node %d reachable under a dead source" v
    done
  end
  else begin
    let r =
      Dijkstra.run_reference
        ~node_ok:(fun v -> not t.Sut.node_dead.(v))
        ~edge_ok:(fun eid -> not t.Sut.edge_dead.(eid))
        g ~source:t.Sut.source
    in
    for v = 0 to Graph.node_count g - 1 do
      match (Sut.distance t v, Dijkstra.distance r v) with
      | None, None -> ()
      | Some a, Some b when a = b -> ()
      | a, b ->
          let s = function None -> "unreachable" | Some d -> Printf.sprintf "%.17g" d in
          Alcotest.failf "node %d: dspf=%s reference=%s" v (s a) (s b)
    done
  end;
  (* Tree pointers must certify the distances they claim. *)
  check "verify" true (Dspf.verify t.Sut.spf)

(* -- Hand-pinned cases -------------------------------------------------- *)

let path_graph delays =
  let n = Array.length delays + 1 in
  let g = Graph.create n in
  Array.iteri (fun i d -> ignore (Graph.add_edge g i (i + 1) d)) delays;
  g

let pinned_chain () =
  (* 0 -1- 1 -1- 2 -1- 3, plus a long bypass 0 -5- 3. *)
  let g = path_graph [| 1.0; 1.0; 1.0 |] in
  let bypass = Graph.add_edge g 0 3 5.0 in
  let t = Sut.create g ~source:0 in
  agree_with_reference t;
  check "d3" true (Sut.distance t 3 = Some 3.0);
  (* Cutting 1-2 re-routes 2 and 3 over the bypass. *)
  Sut.fail_edge t 1;
  agree_with_reference t;
  check "d3 via bypass" true (Sut.distance t 3 = Some 5.0);
  check "d2 via bypass" true (Sut.distance t 2 = Some 6.0);
  (* Cutting the bypass too disconnects the tail. *)
  Sut.fail_edge t bypass;
  agree_with_reference t;
  check "2 unreachable" true (Sut.distance t 2 = None);
  check "3 unreachable" true (Sut.distance t 3 = None);
  (* Restoration heals exactly. *)
  Sut.restore_edge t 1;
  agree_with_reference t;
  check "d3 healed" true (Sut.distance t 3 = Some 3.0)

let pinned_source_subtree_disconnect () =
  (* The failure severs the source's only outgoing tree edge: the whole
     tree below the source is the affected subtree. *)
  let g = path_graph [| 1.0; 1.0; 1.0; 1.0 |] in
  let t = Sut.create g ~source:0 in
  Sut.fail_edge t 0;
  agree_with_reference t;
  for v = 1 to 4 do
    check "cut off" true (Sut.distance t v = None)
  done;
  check "source still zero" true (Sut.distance t 0 = Some 0.0);
  Sut.restore_edge t 0;
  agree_with_reference t;
  check "healed" true (Sut.distance t 4 = Some 4.0)

let pinned_source_failure () =
  let g = path_graph [| 1.0; 2.0 |] in
  let t = Sut.create g ~source:0 in
  Sut.fail_node t 0;
  agree_with_reference t;
  check "source dead" true (Sut.distance t 0 = None)

let pinned_interior_node_failure () =
  (* Star-with-ring: killing the hub forces ring detours. *)
  let g = Graph.create 5 in
  ignore (Graph.add_edge g 0 1 1.0);
  ignore (Graph.add_edge g 1 2 1.0);
  ignore (Graph.add_edge g 1 3 1.0);
  ignore (Graph.add_edge g 2 4 1.0);
  ignore (Graph.add_edge g 3 4 1.0);
  ignore (Graph.add_edge g 0 2 10.0);
  let t = Sut.create g ~source:0 in
  agree_with_reference t;
  Sut.fail_node t 1;
  agree_with_reference t;
  check "2 via long arc" true (Sut.distance t 2 = Some 10.0);
  check "4 via long arc" true (Sut.distance t 4 = Some 11.0)

let pinned_repeated_fail_restore () =
  (* Hammer the same tree edge: state must be idempotent and exact over
     many cycles, including double-fail / double-restore no-ops. *)
  let g = path_graph [| 1.0; 1.0; 1.0 |] in
  ignore (Graph.add_edge g 0 3 9.0);
  let t = Sut.create g ~source:0 in
  for _ = 1 to 20 do
    Sut.fail_edge t 1;
    Sut.fail_edge t 1;
    agree_with_reference t;
    Sut.restore_edge t 1;
    Sut.restore_edge t 1;
    agree_with_reference t
  done;
  check "back to base" true (Sut.distance t 3 = Some 3.0)

let pinned_locality () =
  (* A leaf-edge failure must not touch the rest of the tree. *)
  let g = path_graph [| 1.0; 1.0; 1.0; 1.0; 1.0 |] in
  let t = Sut.create g ~source:0 in
  let before = (Sut.stats t).Dspf.touched in
  Sut.fail_edge t 4;
  let after = (Sut.stats t).Dspf.touched in
  agree_with_reference t;
  check_int "only the leaf touched" 1 (after - before)

(* -- Randomized mutation-sequence differential --------------------------- *)

type mutation = Fail_edge | Restore_edge | Fail_node

let mutations = [| Fail_edge; Restore_edge; Fail_node |]

let apply_mutation rng t ~source mu =
  let g = t.Sut.g in
  let m = Graph.edge_count g in
  let n = Graph.node_count g in
  match mu with
  | Fail_edge -> Sut.fail_edge t (Rng.int rng m)
  | Restore_edge -> Sut.restore_edge t (Rng.int rng m)
  | Fail_node ->
      (* Keep the source alive in most steps so the tree stays
         interesting; kill it outright now and then. *)
      let v = Rng.int rng n in
      Sut.fail_node t (if v = source && Rng.int rng 4 <> 0 then (v + 1) mod n else v)

(* Apply [steps] random fail/restore mutations, checking exact agreement
   with [run_reference] after every single one.  Nothing restores a failed
   node, so one long run would spend its second half on a structure with
   almost nothing reachable: each round of 40 mutations starts from a
   fresh structure.  Returns the number of mutations performed (no-ops on
   already-dead/live elements still count as checks). *)
let differential_run rng g ~source ~steps =
  let rounds = steps / 40 in
  for _ = 1 to rounds do
    let t = Sut.create g ~source in
    agree_with_reference t;
    for _ = 1 to 40 do
      apply_mutation rng t ~source (Rng.pick rng mutations);
      agree_with_reference t
    done
  done;
  rounds * 40

let random_waxman_differential () =
  let rng = Rng.create 20250809 in
  let total = ref 0 in
  for case = 1 to 4 do
    let topo_rng = Rng.split rng in
    let mut_rng = Rng.split rng in
    let w = Waxman.generate topo_rng ~n:(40 + (10 * case)) ~alpha:0.2 ~beta:0.25 in
    total := !total + differential_run mut_rng w.Waxman.graph ~source:0 ~steps:160
  done;
  check "≥640 waxman mutations" true (!total >= 640)

let random_transit_stub_differential () =
  let rng = Rng.create 77031 in
  let total = ref 0 in
  for _ = 1 to 3 do
    let topo_rng = Rng.split rng in
    let mut_rng = Rng.split rng in
    let ts = Transit_stub.generate topo_rng Transit_stub.default_params in
    total := !total + differential_run mut_rng ts.Transit_stub.graph ~source:0 ~steps:160
  done;
  check "≥480 transit-stub mutations" true (!total >= 480)

let stats_count_ops () =
  let g = path_graph [| 1.0; 1.0 |] in
  let t = Sut.create g ~source:0 in
  Sut.fail_edge t 0;
  Sut.fail_edge t 0 (* no-op *);
  Sut.restore_edge t 0;
  let s = Sut.stats t in
  check_int "ops" 2 s.Dspf.ops;
  check "touched bounded" true (s.Dspf.touched <= 3 * Graph.node_count g)

let create_rejects_bad_source () =
  let g = Graph.create 3 in
  Alcotest.check_raises "out of range"
    (Invalid_argument "Dspf.create: source out of range") (fun () ->
      ignore (Dspf.create g ~source:3))

let () =
  Alcotest.run "dspf"
    [
      ( "pinned",
        [
          Alcotest.test_case "chain fail/restore" `Quick pinned_chain;
          Alcotest.test_case "source subtree disconnect" `Quick pinned_source_subtree_disconnect;
          Alcotest.test_case "source failure" `Quick pinned_source_failure;
          Alcotest.test_case "interior node failure" `Quick pinned_interior_node_failure;
          Alcotest.test_case "repeated fail/restore same edge" `Quick pinned_repeated_fail_restore;
          Alcotest.test_case "leaf failure locality" `Quick pinned_locality;
        ] );
      ( "differential",
        [
          Alcotest.test_case "waxman ≥640 mutations" `Quick random_waxman_differential;
          Alcotest.test_case "transit-stub ≥480 mutations" `Quick random_transit_stub_differential;
        ] );
      ( "api",
        [
          Alcotest.test_case "stats count ops" `Quick stats_count_ops;
          Alcotest.test_case "create rejects bad source" `Quick create_rejects_bad_source;
        ] );
    ]
