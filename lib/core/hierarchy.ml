module TS = Smrp_topology.Transit_stub
module Graph = Smrp_graph.Graph
module Subgraph = Smrp_graph.Subgraph

type domain = { id : int; sub : Subgraph.t; tree : Tree.t; agent : int }

type t = {
  ts : TS.t;
  d_thresh : float;
  source : int;
  top : domain;
  stubs : (int * domain) list; (* involved stub domains, by stub id *)
}

let stub_of ts v =
  match ts.TS.roles.(v) with
  | TS.Stub d -> d
  | TS.Transit _ -> invalid_arg "Hierarchy: expected a stub node"

let to_sub_exn sub v =
  match Subgraph.node_to_sub sub v with
  | Some s -> s
  | None -> invalid_arg "Hierarchy: node not in domain subgraph"

let build ?(d_thresh = Smrp.default_d_thresh) ts ~source ~members =
  let source_stub = stub_of ts source in
  let by_stub = Hashtbl.create 8 in
  List.iter
    (fun m ->
      let d = stub_of ts m in
      Hashtbl.replace by_stub d (m :: (Option.value ~default:[] (Hashtbl.find_opt by_stub d))))
    members;
  if not (Hashtbl.mem by_stub source_stub) then Hashtbl.replace by_stub source_stub [];
  let involved = List.sort compare (Hashtbl.fold (fun d _ acc -> d :: acc) by_stub []) in
  let build_stub d =
    let agent = ts.TS.stub_attach.(d) in
    let keep v = match ts.TS.roles.(v) with TS.Stub d' -> d' = d | TS.Transit _ -> false in
    let sub = Subgraph.extract ts.TS.graph ~keep in
    let domain_members = Option.value ~default:[] (Hashtbl.find_opt by_stub d) in
    let root = if d = source_stub then source else agent in
    let tree = Tree.create sub.Subgraph.graph ~source:(to_sub_exn sub root) in
    (* In the source's domain the agent subscribes as a relaying member
       (the paper's A_1) so that packets reach the access link. *)
    let receivers =
      let base = List.filter (fun m -> m <> root) domain_members in
      if d = source_stub && agent <> source && not (List.mem agent base) then base @ [ agent ]
      else base
    in
    List.iter (fun m -> Smrp.join ~d_thresh tree (to_sub_exn sub m)) receivers;
    if List.mem root domain_members then Tree.add_member tree (to_sub_exn sub root);
    { id = d; sub; tree; agent }
  in
  let stubs = List.map (fun d -> (d, build_stub d)) involved in
  let agents = List.map (fun (d, dom) -> (d, dom.agent)) stubs in
  let keep_top v =
    match ts.TS.roles.(v) with
    | TS.Transit _ -> true
    | TS.Stub _ -> List.exists (fun (_, a) -> a = v) agents
  in
  let sub_top = Subgraph.extract ts.TS.graph ~keep:keep_top in
  let root_agent = List.assoc source_stub agents in
  let top_tree = Tree.create sub_top.Subgraph.graph ~source:(to_sub_exn sub_top root_agent) in
  List.iter
    (fun (d, a) -> if d <> source_stub then Smrp.join ~d_thresh top_tree (to_sub_exn sub_top a))
    agents;
  let top = { id = -1; sub = sub_top; tree = top_tree; agent = root_agent } in
  { ts; d_thresh; source; top; stubs }

let top_domain t = t.top

let member_domains t = List.map snd t.stubs

(* Translate a failure in original ids into a domain's subgraph ids; [None]
   when the failed component is absent from the domain. *)
let rec failure_in_domain dom f =
  match f with
  | Failure.Node v -> Option.map (fun s -> Failure.Node s) (Subgraph.node_to_sub dom.sub v)
  | Failure.Link eid ->
      let found = ref None in
      Array.iteri
        (fun sub_id orig_id -> if orig_id = eid && !found = None then found := Some sub_id)
        dom.sub.Subgraph.edge_from_sub;
      Option.map (fun s -> Failure.Link s) !found
  | Failure.Multi fs -> (
      match List.filter_map (failure_in_domain dom) fs with
      | [] -> None
      | local -> Some (Failure.compose local))

type recovery = {
  domain_id : int;
  receiver : int;
  detour : Recovery.detour;
  recovery_distance : float;
  confined : bool;
}

let recover t f =
  let domains = t.top :: List.map snd t.stubs in
  let recover_in dom =
    match failure_in_domain dom f with
    | None -> []
    | Some sub_f ->
        let affected = Failure.affected_members dom.tree sub_f in
        List.filter_map
          (fun m ->
            match Recovery.local_detour dom.tree sub_f ~member:m with
            | None -> None
            | Some d ->
                Some
                  {
                    domain_id = dom.id;
                    receiver = Subgraph.node_from_sub dom.sub m;
                    detour = d;
                    recovery_distance = d.Recovery.recovery_distance;
                    confined = true;
                  })
          affected
  in
  List.concat_map recover_in domains

let flat_equivalent t =
  (* True receivers only: the agent subscribed in the source's domain is a
     relay of the architecture, not a receiver. *)
  let source_stub = stub_of t.ts t.source in
  let members =
    List.concat_map
      (fun (d, dom) ->
        List.filter_map
          (fun m ->
            let orig = Subgraph.node_from_sub dom.sub m in
            if orig = t.source || (d = source_stub && orig = dom.agent) then None else Some orig)
          (Tree.members dom.tree))
      t.stubs
  in
  Smrp.build ~d_thresh:t.d_thresh t.ts.TS.graph ~source:t.source ~members
