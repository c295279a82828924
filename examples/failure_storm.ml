(* Packet-level restoration timeline (the paper's §1 motivation): the same
   session run twice through the discrete-event simulator — once recovering
   with SMRP local detours, once as a PIM-style system that must wait for
   unicast reconvergence — with per-member disruption timelines.

   Run with:  dune exec examples/failure_storm.exe *)

module Rng = Smrp_rng.Rng
module Graph = Smrp_graph.Graph
module Waxman = Smrp_topology.Waxman
module Tree = Smrp_core.Tree
module Failure = Smrp_core.Failure
module Engine = Smrp_sim.Engine
module Protocol = Smrp_sim.Protocol

let run_side ~graph ~source ~members ~name strategy =
  let engine = Engine.create () in
  let config =
    { Protocol.default_config with Protocol.strategy; ospf_convergence = 5.0 }
  in
  let proto = Protocol.create ~config engine graph ~source in
  Protocol.start proto;
  List.iteri
    (fun i m -> Engine.schedule engine ~delay:(0.5 +. float_of_int i) (fun () -> Protocol.join proto m))
    members;
  Engine.run ~until:60.0 engine;
  (* Fail the busiest link below the source. *)
  let tree = Protocol.tree proto in
  let busiest =
    List.fold_left
      (fun best c ->
        match best with
        | Some b when Tree.subtree_members tree b >= Tree.subtree_members tree c -> best
        | _ -> Some c)
      None (Tree.children tree source)
  in
  (match busiest with
  | Some child -> Protocol.inject_link_failure proto (Option.get (Tree.parent_edge tree child))
  | None -> failwith "empty tree");
  Engine.run ~until:120.0 engine;
  Printf.printf "%s:\n" name;
  List.iter
    (fun r ->
      match (r.Protocol.detected, r.Protocol.restored) with
      | Some d, Some rr ->
          Printf.printf "  member %3d  disrupted, detected +%.2fs, video back +%.2fs\n"
            r.Protocol.member d rr
      | Some d, None ->
          Printf.printf "  member %3d  disrupted at +%.2fs and never restored\n" r.Protocol.member d
      | None, _ -> ())
    (Protocol.reports proto);
  let restored = List.filter_map (fun r -> r.Protocol.restored) (Protocol.reports proto) in
  (match restored with
  | [] -> Printf.printf "  (no member needed recovery)\n"
  | _ ->
      Printf.printf "  mean restoration: %.2fs over %d members\n"
        (List.fold_left ( +. ) 0.0 restored /. float_of_int (List.length restored))
        (List.length restored));
  print_newline ()

let () =
  let rng = Rng.create 90210 in
  let topo = Waxman.generate rng ~n:80 ~alpha:0.25 ~beta:0.25 in
  let graph = topo.Waxman.graph in
  let sample = Array.of_list (Rng.sample_without_replacement rng 16 80) in
  Rng.shuffle rng sample;
  let source = sample.(0) in
  let members = Array.to_list (Array.sub sample 1 15) in
  Printf.printf
    "Monitoring feed from router %d to %d stations; the busiest uplink fails at t=60s.\n\n" source
    (List.length members);
  run_side ~graph ~source ~members ~name:"SMRP (immediate local detour)" Protocol.Local;
  run_side ~graph ~source ~members ~name:"PIM over OSPF (global re-join after ~5s reconvergence)"
    Protocol.Global
