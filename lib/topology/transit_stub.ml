module Rng = Smrp_rng.Rng
module Graph = Smrp_graph.Graph

type node_role = Transit of int | Stub of int

type t = {
  graph : Graph.t;
  roles : node_role array;
  stub_count : int;
  transit_domain_count : int;
  stub_gateway : int array;
  stub_attach : int array;
  inter_domain_links : (int * int * int) array;
}

type params = {
  transit_domains : int;
  transit_nodes_per_domain : int;
  stubs_per_transit_node : int;
  stub_nodes : int;
  stub_alpha : float;
  stub_beta : float;
}

(* Dense stub domains: intra-stub redundancy is what makes domain-confined
   recovery possible, mirroring multi-homed enterprise networks. *)
let default_params =
  {
    transit_domains = 2;
    transit_nodes_per_domain = 4;
    stubs_per_transit_node = 2;
    stub_nodes = 6;
    stub_alpha = 0.9;
    stub_beta = 0.6;
  }

(* Transit links are long-haul: give them a higher base delay than stub
   links so that shortest paths prefer staying inside a stub domain, as in
   real transit-stub internetworks. *)
let transit_link_delay = 1.0
let access_link_delay = 0.5

let generate rng p =
  if p.transit_domains < 1 || p.transit_nodes_per_domain < 1 || p.stub_nodes < 1
     || p.stubs_per_transit_node < 0
  then invalid_arg "Transit_stub.generate: bad parameters";
  let transit_total = p.transit_domains * p.transit_nodes_per_domain in
  let stub_count = transit_total * p.stubs_per_transit_node in
  let n = transit_total + (stub_count * p.stub_nodes) in
  let g = Graph.create n in
  let roles = Array.make n (Transit 0) in
  (* Transit routers are nodes [0, transit_total): a ring per domain plus a
     few random chords, and one link between consecutive domains. *)
  for dom = 0 to p.transit_domains - 1 do
    let base = dom * p.transit_nodes_per_domain in
    for i = 0 to p.transit_nodes_per_domain - 1 do
      roles.(base + i) <- Transit dom;
      if p.transit_nodes_per_domain > 1 then begin
        let next = base + ((i + 1) mod p.transit_nodes_per_domain) in
        if not (Graph.mem_edge g (base + i) next) then
          ignore (Graph.add_edge g (base + i) next transit_link_delay)
      end
    done;
    (* One random chord per domain adds redundancy when the ring is big
       enough for a chord to exist. *)
    if p.transit_nodes_per_domain >= 4 then begin
      let a = base + Rng.int rng p.transit_nodes_per_domain in
      let b = base + Rng.int rng p.transit_nodes_per_domain in
      if a <> b && not (Graph.mem_edge g a b) then
        ignore (Graph.add_edge g a b transit_link_delay)
    end
  done;
  let inter_domain = ref [] in
  for dom = 0 to p.transit_domains - 2 do
    let a = (dom * p.transit_nodes_per_domain) + Rng.int rng p.transit_nodes_per_domain in
    let b = ((dom + 1) * p.transit_nodes_per_domain) + Rng.int rng p.transit_nodes_per_domain in
    if not (Graph.mem_edge g a b) then begin
      let eid = Graph.add_edge g a b (2.0 *. transit_link_delay) in
      inter_domain := (eid, a, b) :: !inter_domain
    end
  done;
  (* Stub domains: a connected Waxman graph each, attached by one access
     link from a uniformly chosen stub node to the sponsoring transit
     router. *)
  let stub_gateway = Array.make (max 1 stub_count) 0 in
  let stub_attach = Array.make (max 1 stub_count) 0 in
  let next_node = ref transit_total in
  let stub_id = ref 0 in
  for transit = 0 to transit_total - 1 do
    for _ = 1 to p.stubs_per_transit_node do
      let d = !stub_id in
      incr stub_id;
      stub_gateway.(d) <- transit;
      let base = !next_node in
      next_node := base + p.stub_nodes;
      for i = base to base + p.stub_nodes - 1 do
        roles.(i) <- Stub d
      done;
      (* Local Waxman draw over the stub's nodes, then a spanning chain to
         guarantee connectivity inside the stub. *)
      let local = Waxman.generate rng ~n:p.stub_nodes ~alpha:p.stub_alpha ~beta:p.stub_beta in
      Graph.iter_edges
        (fun e ->
          let u = base + e.Graph.u and v = base + e.Graph.v in
          if not (Graph.mem_edge g u v) then ignore (Graph.add_edge g u v e.Graph.delay))
        local.Waxman.graph;
      let attach = base + Rng.int rng p.stub_nodes in
      stub_attach.(d) <- attach;
      ignore (Graph.add_edge g attach transit access_link_delay)
    done
  done;
  {
    graph = g;
    roles;
    stub_count;
    transit_domain_count = p.transit_domains;
    stub_gateway;
    stub_attach;
    inter_domain_links = Array.of_list (List.rev !inter_domain);
  }

let nodes_of_stub t d =
  let acc = ref [] in
  Array.iteri (fun i role -> match role with Stub d' when d' = d -> acc := i :: !acc | _ -> ()) t.roles;
  List.rev !acc
