module Graph = Smrp_graph.Graph
module Dspf = Smrp_graph.Dspf
module Dijkstra = Smrp_graph.Dijkstra

type protocol = Spf | Smrp of { d_thresh : float } | Smrp_query of { d_thresh : float }

type repair = { detour : Recovery.detour; strategy : [ `Local | `Global | `Protected ] }

type event =
  | Joined of int
  | Left of int
  | Reshaped of { node : int; switches : int }
  | Failed of Failure.t
  | Repaired of repair
  | Lost of int

type t = {
  graph : Smrp_graph.Graph.t;
  protocol : protocol;
  mutable tree : Tree.t;
  mutable active_failures : Failure.t list; (* persistent, newest first *)
  mutable events : event list; (* newest first *)
  (* Protection mode: precomputed branch detours answer the recovery query;
     [None] when protection is off. *)
  protection : Protect.t option;
  (* The incrementally-maintained source SPF: it supplies every join's
     unicast distance and answers [reachable].  Failures reach it lazily —
     [fail] only queues them in [unsynced] (newest first), and the next
     read applies the queue — so a session that repairs and reshapes but
     never joins again pays no SPF update. *)
  spf : Dspf.t;
  mutable unsynced : Failure.t list;
  (* Every join, detour and re-join search borrows this one workspace, so a
     search allocates no arrays or heap of its own. *)
  ws : Dijkstra.workspace;
  (* Every active failure, compiled once as [fail] adds it: the filters of
     every failure-aware search. *)
  dead : Failure.mask;
}

let create ?(protection = false) graph ~source ~protocol =
  let tree = Tree.create graph ~source in
  {
    graph;
    protocol;
    tree;
    active_failures = [];
    events = [];
    protection = (if protection then Some (Protect.create tree) else None);
    spf = Dspf.create graph ~source;
    unsynced = [];
    ws = Dijkstra.workspace ~capacity:(Graph.node_count graph) ();
    dead = Failure.mask graph;
  }

let active_failure t =
  match t.active_failures with [] -> None | fs -> Some (Failure.compose fs)

let tree t = t.tree

let protection_stats t = Option.map Protect.stats t.protection

let events t = List.rev t.events

let log t e = t.events <- e :: t.events

let invalidate_protection t = Option.iter Protect.invalidate t.protection

let rec sync_spf sp = function
  | Failure.Link e -> Dspf.fail_edge sp e
  | Failure.Node v -> Dspf.fail_node sp v
  | Failure.Multi fs -> List.iter (sync_spf sp) fs

(* The source SPF with every queued failure applied, oldest first. *)
let spf t =
  if t.unsynced <> [] then begin
    List.iter (sync_spf t.spf) (List.rev t.unsynced);
    t.unsynced <- []
  end;
  t.spf

let reachable t v = Dspf.reachable (spf t) v

(* The compiled active failure; [None] while nothing has failed, so the
   searches take Dijkstra's unfiltered paths. *)
let filters t = match t.active_failures with [] -> None | _ -> Some (Failure.mask_filters t.dead)

let join t nr =
  let filters = filters t and ws = t.ws in
  (* The incremental SPF already knows every unicast distance under every
     active failure, so an SMRP or query join runs only its candidate
     search.  A session tree never crosses an active failure, so the
     post-failure distances also bound an SMRP join's search.  A relay
     subscription and an SPF join read no distance. *)
  let on_tree = Tree.is_on_tree t.tree nr in
  let distances () = if on_tree then None else Some (Dspf.distances (spf t)) in
  (match t.protocol with
  | Spf -> Spf.join ?filters ~ws t.tree nr
  | Smrp { d_thresh } -> Smrp.join ~d_thresh ?filters ~ws ?spf:(distances ()) t.tree nr
  | Smrp_query { d_thresh } -> (
      (* The query scheme has no failure-aware variant; under active
         failures fall back to the failure-aware SMRP selection.  [Dspf]
         returning [None] means the source is unreachable; passing nothing
         lets the query join re-derive and raise identically. *)
      match filters with
      | None ->
          let spf_dist = if on_tree then None else Dspf.distance (spf t) nr in
          Query.join ~d_thresh ~ws ?spf_dist t.tree nr
      | Some _ -> Smrp.join ~d_thresh ?filters ~ws ?spf:(distances ()) t.tree nr));
  invalidate_protection t;
  log t (Joined nr)

let leave t m =
  Tree.remove_member t.tree m;
  invalidate_protection t;
  log t (Left m)

let reshape_all t =
  match t.protocol with
  | Spf -> 0
  | Smrp { d_thresh } | Smrp_query { d_thresh } ->
      let stats = Reshape.stabilize ~d_thresh ?failure:(active_failure t) ~ws:t.ws t.tree in
      if stats.Reshape.switches > 0 then begin
        invalidate_protection t;
        log t (Reshaped { node = Tree.source t.tree; switches = stats.Reshape.switches })
      end;
      stats.Reshape.switches

(* -- Precomputed-protection repair --------------------------------------- *)

(* Execute the table-driven repair on a copy of the tree: detach every
   orphaned branch, drop dead members, then re-attach each branch along its
   precomputed detour, closest first.  All-or-nothing: any precondition
   miss discards the copy and returns [None] so the caller falls back to
   the search path (the copy guarantees the session tree is untouched). *)
let apply_protected t p ~dead ~entries =
  let lookups =
    List.map
      (fun (eid, kind) ->
        match kind with `Link -> Protect.link_lookup p eid | `Node -> Protect.node_lookup p eid)
      entries
  in
  if List.exists Option.is_none lookups then None
  else begin
    let entries =
      List.sort
        (fun a b ->
          compare
            (a.Protect.recovery_distance, a.Protect.root)
            (b.Protect.recovery_distance, b.Protect.root))
        (List.map Option.get lookups)
    in
    let fresh = Tree.copy t.tree in
    try
      let branches =
        List.map (fun e -> (e, fst (Tree.detach_branch fresh ~node:e.Protect.root))) entries
      in
      List.iter (fun v -> Tree.remove_member fresh v) dead;
      let pending = ref (List.map snd branches) in
      let repairs =
        List.map
          (fun (entry, br) ->
            pending := List.filter (fun b -> b != br) !pending;
            let in_pending v = List.exists (fun b -> Tree.branch_contains b v) !pending in
            (* The precomputed path must still be valid in the current
               state: a genuinely on-tree merge (detached branch nodes
               still read on-tree, so pending branches are checked
               explicitly) and strictly off-tree interiors. *)
            (match List.rev entry.Protect.path_nodes with
            | merge :: rest ->
                if
                  (not (Tree.is_on_tree fresh merge))
                  || Tree.branch_contains br merge || in_pending merge
                then raise Exit;
                let rec interiors = function
                  | [] | [ _ ] -> () (* last node is the branch root *)
                  | v :: tl ->
                      if Tree.is_on_tree fresh v || in_pending v then raise Exit;
                      interiors tl
                in
                interiors rest
            | [] -> raise Exit);
            let new_total_delay =
              entry.Protect.recovery_distance +. Tree.delay_to_source fresh entry.Protect.merge
            in
            Tree.attach_branch fresh br
              ~nodes:(List.rev entry.Protect.path_nodes)
              ~edges:(List.rev entry.Protect.path_edges);
            {
              detour =
                {
                  Recovery.member = entry.Protect.root;
                  merge = entry.Protect.merge;
                  path_nodes = entry.Protect.path_nodes;
                  path_edges = entry.Protect.path_edges;
                  recovery_distance = entry.Protect.recovery_distance;
                  new_total_delay;
                };
              strategy = `Protected;
            })
          branches
      in
      Some (repairs, fresh)
    with Exit | Invalid_argument _ -> None
  end

(* The table-driven fast path applies when the new failure is the only
   active one and orphans whole subtrees of the current tree: a single
   link on a tree edge, or a single non-source node.  Anything else —
   correlated failures, a second failure arriving after the first, source
   failures — falls back to the staged search repair. *)
let try_protected t p f =
  match t.active_failures with
  | [ _ ] -> (
      let tree = t.tree in
      match f with
      | Failure.Link eid ->
          let e = Graph.edge t.graph eid in
          let c =
            if Tree.parent_edge_id tree e.Graph.u = eid then e.Graph.u
            else if Tree.parent_edge_id tree e.Graph.v = eid then e.Graph.v
            else -1
          in
          if c < 0 then Some ([], [], t.tree) (* off-tree link: nothing to repair *)
          else
            Option.map
              (fun (repairs, fresh) -> (repairs, [], fresh))
              (apply_protected t p ~dead:[] ~entries:[ (eid, `Link) ])
      | Failure.Node v ->
          if v = Tree.source tree then None
          else if not (Tree.is_on_tree tree v) then Some ([], [], t.tree)
          else begin
            let entries =
              List.map (fun c -> (Tree.parent_edge_id tree c, `Node)) (Tree.children tree v)
            in
            let dead = if Tree.is_member tree v then [ v ] else [] in
            Option.map
              (fun (repairs, fresh) -> (repairs, dead, fresh))
              (apply_protected t p ~dead ~entries)
          end
      | Failure.Multi _ -> None)
  | _ -> None

(* Repairs swap the tree object; the tables follow it and go stale.  They
   are not recomputed here: the fast path only reads them while a single
   failure is active, and failures never clear, so an entry is computed
   only when a lookup asks for it. *)
let retarget_protection t = Option.iter (fun p -> Protect.retarget p t.tree) t.protection

(* Ids are checked here rather than when the SPF applies the failure, so a
   bad id is rejected before it touches the session. *)
let rec check_ids g = function
  | Failure.Link e ->
      if e < 0 || e >= Graph.edge_count g then
        invalid_arg (Printf.sprintf "Session.fail: bad edge id %d" e)
  | Failure.Node v ->
      if v < 0 || v >= Graph.node_count g then
        invalid_arg (Printf.sprintf "Session.fail: node %d out of range" v)
  | Failure.Multi fs -> List.iter (check_ids g) fs

let fail t f =
  check_ids t.graph f;
  Failure.kill t.dead f;
  log t (Failed f);
  t.active_failures <- f :: t.active_failures;
  t.unsynced <- f :: t.unsynced;
  (* Detours must avoid every failure still active, not just the new one. *)
  let f_all = Option.get (active_failure t) in
  let protected_result =
    match (t.protection, t.protocol) with
    | Some p, (Smrp _ | Smrp_query _) -> try_protected t p f
    | _ -> None
  in
  match protected_result with
  | Some (repairs, dead, fresh) ->
      List.iter (fun m -> log t (Lost m)) dead;
      List.iter (fun r -> log t (Repaired r)) repairs;
      t.tree <- fresh;
      retarget_protection t;
      repairs
  | None ->
      let f = f_all in
      let strategy = match t.protocol with Spf -> `Global | Smrp _ | Smrp_query _ -> `Local in
      let affected = Failure.affected_members t.tree f in
      let dead = List.filter (fun m -> not (Failure.node_ok f m)) (Tree.members t.tree) in
      let fresh = Recovery.surviving_tree t.tree f in
      let filters = Failure.mask_filters t.dead and ws = t.ws in
      (* Closest-detour-first repair: each re-attachment can serve as a merge
         point for the next member (Fig. 2(b)), so detours are recomputed after
         every graft.  The surviving set changes only with a graft, so every
         pending member's search in one round shares it. *)
      let rec repair pending repairs =
        let surviving = if pending = [] then [||] else Failure.tree_connected fresh f in
        let detour_of m =
          match strategy with
          | `Local -> Recovery.local_detour ~ws ~filters ~surviving fresh f ~member:m
          | `Global -> Recovery.global_detour ~ws ~filters ~surviving fresh f ~member:m
        in
        let options =
          List.filter_map (fun m -> Option.map (fun d -> (m, d)) (detour_of m)) pending
        in
        match
          List.sort
            (fun (_, a) (_, b) ->
              compare
                (a.Recovery.recovery_distance, a.Recovery.member)
                (b.Recovery.recovery_distance, b.Recovery.member))
            options
        with
        | [] ->
            List.iter (fun m -> log t (Lost m)) pending;
            List.rev repairs
        | (m, d) :: _ ->
            (match d.Recovery.path_edges with
            | [] -> Tree.add_member fresh m (* merge node is the member itself *)
            | _ ->
                Tree.graft fresh
                  ~nodes:(List.rev d.Recovery.path_nodes)
                  ~edges:(List.rev d.Recovery.path_edges);
                Tree.add_member fresh m);
            let r = { detour = d; strategy = (strategy :> [ `Local | `Global | `Protected ]) } in
            log t (Repaired r);
            repair (List.filter (fun m' -> m' <> m) pending) (r :: repairs)
      in
      List.iter (fun m -> log t (Lost m)) dead;
      let repairs = repair affected [] in
      t.tree <- fresh;
      retarget_protection t;
      repairs
