module Rng = Smrp_rng.Rng
module Graph = Smrp_graph.Graph
module Dijkstra = Smrp_graph.Dijkstra
module Dspf = Smrp_graph.Dspf
module Scale = Smrp_topology.Scale
module Transit_stub = Smrp_topology.Transit_stub
module Tree = Smrp_core.Tree
module Smrp = Smrp_core.Smrp
module Protect = Smrp_core.Protect

let now = Unix.gettimeofday

type row = {
  model : string;
  n : int;
  edges : int;
  avg_degree : float;
  gen_s : float;  (** Topology draw, connectivity repair and CSR freeze. *)
  spf_build_s : float;  (** {!Dspf.create}: initial source-rooted tree. *)
  spf_repair_us : float;  (** Mean incremental repair per tree-edge failure. *)
  tree_edges : int;  (** Edges of the sample multicast tree. *)
  protect_entry_ms : float;
      (** Mean branch-detour precompute per table entry, over a bounded
          sample of tree edges (full [prepare] = entries x this). *)
  protect_lookup_ns : float;  (** Mean per-lookup cost on the warm tables. *)
  join_us : float;
      (** Mean {!Smrp.join} over a fixed sample of joiners on a copy of the
          sample tree, D_SPF and search bounds read off the Dspf. *)
}

(* Transit–stub shape scaled to ~[n] total nodes: domain count grows with
   the cube root so all three levels deepen together. *)
let ts_params ~n =
  let domains = max 2 (int_of_float (Float.cbrt (float_of_int n /. 100.0))) in
  let tpd = max 4 (int_of_float (Float.sqrt (float_of_int n /. float_of_int (domains * 20)))) in
  let stub_nodes = 8 in
  let per_transit =
    max 1 ((n - (domains * tpd)) / (domains * tpd * stub_nodes))
  in
  {
    Transit_stub.default_params with
    Transit_stub.transit_domains = domains;
    transit_nodes_per_domain = tpd;
    stubs_per_transit_node = per_transit;
    stub_nodes;
  }

(* A source-rooted sample tree built straight from the SPF parents: grafting
   each member's Dspf path costs O(path), so even the 10⁶-node tree builds
   in milliseconds — the per-join candidate search the protocols run is not
   what this sweep measures. *)
let sample_tree sp g ~source ~members =
  let t = Tree.create g ~source in
  List.iter
    (fun m ->
      if (not (Tree.is_on_tree t m)) && Dspf.reachable sp m then begin
        let rec climb v acc_nodes acc_edges =
          if Tree.is_on_tree t v then (v :: acc_nodes, acc_edges)
          else
            let p = Dspf.parent sp v and e = Dspf.parent_edge sp v in
            if p < 0 || e < 0 then (v :: acc_nodes, acc_edges)
            else climb p (v :: acc_nodes) (e :: acc_edges)
        in
        let nodes, edges = climb m [] [] in
        (match edges with [] -> () | _ -> Tree.graft t ~nodes ~edges);
        Tree.add_member t m
      end
      else if Dspf.reachable sp m then Tree.add_member t m)
    members;
  t

let measure_instance rng ~model g =
  let source = 0 in
  let t0 = now () in
  let sp = Dspf.create g ~source in
  let spf_build_s = now () -. t0 in
  (* Incremental repair cost: fail and restore a sample of tree edges. *)
  let sample_edges =
    List.filter_map
      (fun v ->
        let e = if v = source then -1 else Dspf.parent_edge sp v in
        if e < 0 then None else Some e)
      (List.init (min 64 (Graph.node_count g)) (fun _ -> Rng.int rng (Graph.node_count g)))
  in
  let sample_edges = List.sort_uniq compare sample_edges in
  let t0 = now () in
  List.iter
    (fun e ->
      Dspf.fail_edge sp e;
      Dspf.restore_edge sp e)
    sample_edges;
  let spf_repair_us =
    match sample_edges with
    | [] -> 0.0
    | es -> (now () -. t0) *. 1e6 /. (2.0 *. float_of_int (List.length es))
  in
  (* Protection tables over a modest member population: the precompute is
     per tree edge, so the sample keeps the sweep wall-clock bounded while
     still exercising the full path at scale. *)
  let members =
    List.sort_uniq compare
      (List.filter
         (fun v -> v <> source)
         (List.init (min 48 (max 1 (Graph.node_count g / 2))) (fun _ ->
              Rng.int rng (Graph.node_count g))))
  in
  let tree = sample_tree sp g ~source ~members in
  let p = Protect.create tree in
  let tree_edges = Tree.tree_edges tree in
  (* Table precompute is one bounded search per entry; at 10^5-10^6 nodes a
     full [prepare] over every tree edge would dominate the sweep, so the
     per-entry cost is measured over a sample and the full cost derived
     (entries x per-entry). *)
  let sample_budget = min 128 (max 16 (2_000_000 / max 1 (Graph.node_count g))) in
  let entry_sample =
    let rec take k = function
      | e :: rest when k > 0 -> e :: take (k - 1) rest
      | _ -> []
    in
    take sample_budget tree_edges
  in
  let t0 = now () in
  List.iter (fun e -> ignore (Protect.link_lookup p e)) entry_sample;
  let protect_entry_ms =
    match entry_sample with
    | [] -> 0.0
    | es -> (now () -. t0) *. 1e3 /. float_of_int (List.length es)
  in
  let lookups = 20_000 in
  (* [link_rd] is the raw O(1) read; the sampled entries above are the warm
     ones, so the throughput loop cycles over exactly those. *)
  let arr = Array.of_list entry_sample in
  let protect_lookup_ns =
    if Array.length arr = 0 then 0.0
    else begin
      let t0 = now () in
      let acc = ref 0.0 in
      for i = 0 to lookups - 1 do
        acc := !acc +. Protect.link_rd p arr.(i mod Array.length arr)
      done;
      ignore (Sys.opaque_identity !acc);
      (now () -. t0) *. 1e9 /. float_of_int lookups
    end
  in
  (* The join stage: SMRP joins of a fixed sample of off-tree nodes, one
     after another on a copy of the sample tree, each reading the Dspf's
     distances as a session's join does. *)
  let n = Graph.node_count g in
  let joiners =
    List.sort_uniq compare
      (List.filter
         (fun v -> (not (Tree.is_on_tree tree v)) && Dspf.reachable sp v)
         (List.init (min 32 n) (fun _ -> Rng.int rng n)))
  in
  let join_tree = Tree.copy tree and ws = Dijkstra.workspace ~capacity:n () in
  let spf = Dspf.distances sp in
  let t0 = now () in
  List.iter
    (fun m -> if not (Tree.is_member join_tree m) then Smrp.join ~ws ~spf join_tree m)
    joiners;
  let join_us =
    match joiners with
    | [] -> 0.0
    | js -> (now () -. t0) *. 1e6 /. float_of_int (List.length js)
  in
  {
    model;
    n = Graph.node_count g;
    edges = Graph.edge_count g;
    avg_degree = Graph.average_degree g;
    gen_s = 0.0 (* filled by the caller, which timed the draw *);
    spf_build_s;
    spf_repair_us;
    tree_edges = List.length tree_edges;
    protect_entry_ms;
    protect_lookup_ns;
    join_us;
  }

let run_one rng ~model ~n =
  match model with
  | `Waxman ->
      let alpha, beta = Scale.degree_params ~n ~target_degree:8.0 in
      let t0 = now () in
      let t = Scale.waxman rng ~n ~alpha ~beta in
      let gen_s = now () -. t0 in
      { (measure_instance rng ~model:"waxman" t.Scale.graph) with gen_s }
  | `Transit_stub ->
      let p = ts_params ~n in
      let t0 = now () in
      let g = (Transit_stub.generate rng p).Transit_stub.graph in
      Graph.freeze g;
      let gen_s = now () -. t0 in
      { (measure_instance rng ~model:"transit-stub" g) with gen_s }

let run ?(ns = [ 10_000; 100_000 ]) ~seed () =
  let rng = Rng.create seed in
  List.concat_map
    (fun n ->
      [ run_one (Rng.split rng) ~model:`Waxman ~n; run_one (Rng.split rng) ~model:`Transit_stub ~n ])
    ns

let render rows =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "scaling sweep: generation + incremental SPF + protection tables + SMRP joins\n";
  Printf.bprintf buf "%-14s %9s %9s %7s %9s %10s %12s %10s %12s %12s %10s\n" "model" "nodes"
    "edges" "degree" "gen(s)" "dspf(s)" "repair(us)" "tree-edges" "entry(ms)" "lookup(ns)"
    "join(us)";
  List.iter
    (fun r ->
      Printf.bprintf buf "%-14s %9d %9d %7.2f %9.2f %10.3f %12.1f %10d %12.2f %12.1f %10.1f\n"
        r.model r.n r.edges r.avg_degree r.gen_s r.spf_build_s r.spf_repair_us r.tree_edges
        r.protect_entry_ms r.protect_lookup_ns r.join_us)
    rows;
  Buffer.contents buf

let to_json rows =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\n  \"schema\": \"smrp-scaling-v1\",\n  \"rows\": [\n";
  List.iteri
    (fun i r ->
      Printf.bprintf buf
        "    {\"model\": %S, \"n\": %d, \"edges\": %d, \"avg_degree\": %.3f, \"gen_s\": %.4f, \
         \"spf_build_s\": %.4f, \"spf_repair_us\": %.2f, \"tree_edges\": %d, \
         \"protect_entry_ms\": %.3f, \"protect_lookup_ns\": %.1f, \"join_us\": %.1f}%s\n"
        r.model r.n r.edges r.avg_degree r.gen_s r.spf_build_s r.spf_repair_us r.tree_edges
        r.protect_entry_ms r.protect_lookup_ns r.join_us
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf
