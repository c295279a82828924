module Dijkstra = Smrp_graph.Dijkstra

type stats = { switches : int; rounds : int }

(* -- Mutation-free single-node evaluation --------------------------------

   Reshaping [r] is the join decision re-made with [r]'s own subtree
   discounted: detach the branch, search for a merge point, and switch only
   to a bounded candidate strictly better than the current attachment.
   [eval_node] makes that decision without detaching anything.  It
   evaluates the node against epoch-stamped marks describing what the
   detached tree {e would} look like, and mutates only on an actual switch:

   - [sub]: the subtree of the evaluated node [r] (the branch);
   - [anc]/[anc_depth]: the strict ancestors of [r] with their depths, so
     the SHR a merge candidate would have after detaching [r]'s branch is
     [shr m - nsub * depth (first marked ancestor of m)] — detaching removes
     [nsub] members from exactly the ancestors of [r], and the ones on [m]'s
     source path are those above the deepest common ancestor;
   - [chain]: the relay chain that detaching would prune (off-tree in the
     detached view: traversable, not a merge point).

   The candidate Dijkstra is goal-directed, as a join's is: a replacement
   must meet the delay bound, so the search never goes where the delay so
   far plus the node's source distance in [lower] exceeds it, and the
   candidate scan reads only the nodes the search settled. *)

type scratch = {
  sub : int array;
  anc : int array;
  anc_depth : int array;
  chain : int array;
  stack : int array;
  spf : float array; (* source-rooted SPF distances over the surviving network: D_SPF *)
  lower : float array; (* source-rooted SPF distances over a graph holding every tree path *)
  depth : int array;
  eval_stamp : int array; (* mutation stamp at last known-clean evaluation *)
  (* Tree facts cached per mutation stamp, so the per-candidate scan reads
     plain arrays instead of making cross-module calls per node. *)
  on_tree_c : bool array;
  dts_c : float array; (* delay_to_source, on-tree nodes only *)
  shr_c : int array; (* SHR, on-tree nodes only *)
  mutable cache_stamp : int;
  mutable epoch : int;
  mutable mstamp : int; (* bumped on every switch *)
}

let make_scratch n ~spf ~lower =
  {
    sub = Array.make n 0;
    anc = Array.make n 0;
    anc_depth = Array.make n 0;
    chain = Array.make n 0;
    stack = Array.make n 0;
    spf;
    lower;
    depth = Array.make n 0;
    eval_stamp = Array.make n 0;
    on_tree_c = Array.make n false;
    dts_c = Array.make n infinity;
    shr_c = Array.make n 0;
    cache_stamp = 0;
    epoch = 0;
    mstamp = 1;
  }

let refresh_caches t sc =
  if sc.cache_stamp <> sc.mstamp then begin
    for v = 0 to Array.length sc.on_tree_c - 1 do
      if Tree.is_on_tree t v then begin
        sc.on_tree_c.(v) <- true;
        sc.dts_c.(v) <- Tree.delay_to_source t v;
        sc.shr_c.(v) <- Tree.shr t v
      end
      else sc.on_tree_c.(v) <- false
    done;
    sc.cache_stamp <- sc.mstamp
  end

let bound_epsilon = 1e-9

let always _ = true

(* Evaluate node [r], mutating the tree only on a switch; returns whether
   it switched.  [filters] is the active failure, compiled once per
   sweep. *)
let eval_node t sc ~ws ~d_thresh ~filters r =
  let g = Tree.graph t in
  let spf_dist = sc.spf.(r) in
  if spf_dist = infinity then false
  else begin
    refresh_caches t sc;
    sc.epoch <- sc.epoch + 1;
    let ep = sc.epoch in
    (* Subtree marks (iterative DFS over child lists). *)
    let sp = ref 0 in
    sc.stack.(!sp) <- r;
    incr sp;
    while !sp > 0 do
      decr sp;
      let v = sc.stack.(!sp) in
      sc.sub.(v) <- ep;
      List.iter
        (fun c ->
          sc.stack.(!sp) <- c;
          incr sp)
        (Tree.children t v)
    done;
    let nsub = Tree.subtree_members t r in
    (* Ancestor chain with depths. *)
    let depth_r = ref 0 in
    let v = ref r in
    let src = Tree.source t in
    while !v <> src do
      v := Tree.parent_id t !v;
      incr depth_r
    done;
    let k = ref 1 in
    v := Tree.parent_id t r;
    let continue = ref true in
    while !continue do
      sc.anc.(!v) <- ep;
      sc.anc_depth.(!v) <- !depth_r - !k;
      if !v = src then continue := false
      else begin
        v := Tree.parent_id t !v;
        incr k
      end
    done;
    (* Relay chain the detachment would prune, and the surviving merge
       point of the current attachment. *)
    let chain_child = ref r in
    let m0 = ref (Tree.parent_id t r) in
    let walking = ref true in
    while !walking do
      let v = !m0 in
      if
        v <> src
        && (not (Tree.is_member t v))
        && List.for_all (fun c -> c = !chain_child) (Tree.children t v)
      then begin
        sc.chain.(v) <- ep;
        chain_child := v;
        m0 := Tree.parent_id t v
      end
      else walking := false
    done;
    let m0 = !m0 in
    (* Current attachment: delay summed top-down, from the surviving merge
       point to [r]. *)
    let ce_n = ref 0 in
    let v = ref r in
    while !v <> m0 do
      sc.stack.(!ce_n) <- Tree.parent_edge_id t !v;
      incr ce_n;
      v := Tree.parent_id t !v
    done;
    let current_delay = ref 0.0 in
    for i = !ce_n - 1 downto 0 do
      current_delay := !current_delay +. (Smrp_graph.Graph.edge g sc.stack.(i)).Smrp_graph.Graph.delay
    done;
    let current_total = !current_delay +. sc.dts_c.(m0) in
    let current_shr = sc.shr_c.(m0) - (nsub * sc.anc_depth.(m0)) in
    let bound = ((1.0 +. d_thresh) *. spf_dist) +. bound_epsilon in
    (* Candidate search on the virtual detached tree.  The filters close
       over the scratch marks and caches only — every test is an array
       read, plus the compiled failure filters when a failure is active. *)
    let alive = match filters with None -> always | Some (node_alive, _) -> node_alive in
    let result =
      match filters with
      | None ->
          let node_ok v = sc.sub.(v) <> ep || v = r in
          let absorb v = sc.on_tree_c.(v) && sc.chain.(v) <> ep && sc.sub.(v) <> ep in
          Dijkstra.run ~node_ok ~absorb ~bound:(bound, sc.lower) ~workspace:ws g ~source:r
      | Some (node_alive, edge_ok) ->
          let node_ok v = (sc.sub.(v) <> ep || v = r) && node_alive v in
          let absorb v = sc.on_tree_c.(v) && sc.chain.(v) <> ep && node_ok v in
          Dijkstra.run ~node_ok ~edge_ok ~absorb ~bound:(bound, sc.lower) ~workspace:ws g
            ~source:r
    in
    (* Best bounded candidate among the settled merge points, scanned in
       ascending merge order with [Smrp.select]'s comparisons on the
       post-detach SHR. *)
    let merges =
      Dijkstra.settled_by_id
        (fun m -> m <> r && sc.on_tree_c.(m) && sc.chain.(m) <> ep && sc.sub.(m) <> ep && alive m)
        result
    in
    let best = ref (-1) and best_delay = ref infinity and best_shr = ref max_int in
    for i = 0 to Array.length merges - 1 do
      let m = merges.(i) in
      let total = Dijkstra.unsafe_distance result m +. sc.dts_c.(m) in
      if total <= bound then begin
        (* Post-detach SHR: subtract [nsub] per ancestor of [r] on [m]'s
           source path — everything above the first marked ancestor. *)
        let a = ref m in
        while sc.anc.(!a) <> ep do
          a := Tree.parent_id t !a
        done;
        let shr = sc.shr_c.(m) - (nsub * sc.anc_depth.(!a)) in
        let is_better =
          !best < 0 || shr < !best_shr
          || (shr = !best_shr && total < !best_delay -. bound_epsilon)
          || (shr = !best_shr && abs_float (total -. !best_delay) <= bound_epsilon && m < !best)
        in
        if is_better then begin
          best := m;
          best_delay := total;
          best_shr := shr
        end
      end
    done;
    if
      !best >= 0
      && (!best_shr < current_shr
         || (!best_shr = current_shr && !best_delay < current_total -. bound_epsilon))
    then begin
      (* A strictly better bounded candidate exists: do the real detach /
         attach.  Extract the path before anything else touches [ws]. *)
      let nodes = List.rev (Option.get (Dijkstra.path_nodes result !best)) in
      let edges = List.rev (Option.get (Dijkstra.path_edges result !best)) in
      let branch, _previous = Tree.detach_branch t ~node:r in
      Tree.attach_branch t branch ~nodes ~edges;
      true
    end
    else false
  end

let try_reshape ?d_thresh ?ws ?spf t r =
  if not (Tree.is_on_tree t r) then invalid_arg "Reshape.try_reshape: off-tree node";
  if r = Tree.source t then invalid_arg "Reshape.try_reshape: cannot reshape the source";
  let n = Smrp_graph.Graph.node_count (Tree.graph t) in
  let ws = match ws with Some ws -> ws | None -> Dijkstra.workspace ~capacity:n () in
  let spf = match spf with Some spf -> spf | None -> Smrp.source_spf ~ws t in
  eval_node t (make_scratch n ~spf ~lower:spf) ~ws
    ~d_thresh:(Option.value d_thresh ~default:Smrp.default_d_thresh)
    ~filters:None r

let stabilize ?d_thresh ?failure ?ws ?(max_rounds = 10) ?metrics t =
  if max_rounds < 1 then invalid_arg "Reshape.stabilize: max_rounds must be positive";
  let d_thresh = Option.value d_thresh ~default:Smrp.default_d_thresh in
  let ws =
    match ws with
    | Some ws -> ws
    | None ->
        Smrp_graph.Dijkstra.workspace ~capacity:(Smrp_graph.Graph.node_count (Tree.graph t)) ()
  in
  (* Instrumentation rides the workspace recorder (like candidate_search)
     and an optional registry; both off (the default) costs one branch per
     round.  Round and sweep wall times go to sketches so the profile can
     report p50/p99 across many stabilize calls. *)
  let module M = Smrp_obs.Metrics in
  let module Flight = Smrp_obs.Flight in
  let fl = Dijkstra.workspace_flight ws in
  let observing = Flight.enabled fl || Option.is_some metrics in
  let clock () = if observing then Flight.now () else 0 in
  let seconds t0 = float_of_int (Flight.now () - t0) /. Flight.ticks_per_second in
  let inst =
    Option.map
      (fun m ->
        ( M.counter m "reshape.rounds",
          M.counter m "reshape.scans",
          M.counter m "reshape.switches",
          M.sketch m "reshape.round_s",
          M.sketch m "reshape.stabilize_s" ))
      metrics
  in
  let t_start = clock () in
  let g = Tree.graph t in
  let n = Smrp_graph.Graph.node_count g in
  (* One source-rooted SPF serves every per-node bound: the graph and
     failure are fixed for the whole sweep, so [spf_distance] from each
     node would recompute the same distances n times over.  D_SPF is over
     the surviving network.  The lower bounds are over the failure-free
     one: a merge point's delay is read off the tree, whose paths may
     still cross the failure. *)
  let src = Tree.source t in
  let filters = Option.map (Failure.filters g) failure in
  let lower = Smrp.source_spf ~ws t in
  let spf = match filters with None -> lower | Some _ -> Smrp.source_spf ?filters ~ws t in
  let sc = make_scratch n ~spf ~lower in
  let finish stats =
    Option.iter
      (fun (_, _, _, _, sweep_q) -> Smrp_obs.Sketch.observe sweep_q (seconds t_start))
      inst;
    Flight.span fl ~code:Flight.span_reshape_stabilize ~start:t_start
      ~b:(Flight.pack stats.rounds stats.switches);
    stats
  in
  let rec run rounds switches =
    if rounds = max_rounds then finish { switches; rounds }
    else begin
      let r0 = clock () in
      (* Deepest-first order: re-homing a subtree does not invalidate the
         pending decisions of shallower nodes as often.  Depths come from one
         DFS over child lists; the packed key (depth descending, id
         ascending) reproduces the historical sort on path-to-source
         lengths without building the paths. *)
      let sp = ref 0 in
      sc.stack.(!sp) <- src;
      incr sp;
      sc.depth.(src) <- 0;
      let order = Array.make n 0 in
      let k = ref 0 in
      while !sp > 0 do
        decr sp;
        let v = sc.stack.(!sp) in
        if v <> src then begin
          order.(!k) <- ((n - sc.depth.(v)) * n) + v;
          incr k
        end;
        List.iter
          (fun c ->
            sc.depth.(c) <- sc.depth.(v) + 1;
            sc.stack.(!sp) <- c;
            incr sp)
          (Tree.children t v)
      done;
      let order = Array.sub order 0 !k in
      Array.sort (fun (a : int) b -> compare a b) order;
      let round_scans = ref 0 in
      let round_switches = ref 0 in
      Array.iter
        (fun key ->
          let v = key mod n in
          if Tree.is_on_tree t v && v <> src then begin
            incr round_scans;
            (* A node that evaluated clean keeps that verdict until the next
               switch mutates the tree: skip the search, keep the scan
               count (the node was considered, the answer is just known). *)
            if sc.eval_stamp.(v) <> sc.mstamp then begin
              if eval_node t sc ~ws ~d_thresh ~filters v then begin
                sc.mstamp <- sc.mstamp + 1;
                incr round_switches
              end
              else sc.eval_stamp.(v) <- sc.mstamp
            end
          end)
        order;
      let round_switches = !round_switches in
      Option.iter
        (fun (rounds_c, scans_c, switches_c, round_q, _) ->
          M.Counter.incr rounds_c;
          M.Counter.add scans_c !round_scans;
          M.Counter.add switches_c round_switches;
          Smrp_obs.Sketch.observe round_q (seconds r0))
        inst;
      Flight.span fl ~code:Flight.span_reshape_round ~start:r0
        ~b:(Flight.pack !round_scans round_switches);
      if round_switches = 0 then finish { switches; rounds = rounds + 1 }
      else run (rounds + 1) (switches + round_switches)
    end
  in
  run 0 0

type monitor = (int, int) Hashtbl.t

let monitor t =
  let m = Hashtbl.create 64 in
  List.iter (fun v -> Hashtbl.replace m v (Tree.shr t v)) (Tree.on_tree_nodes t);
  m

let drifted m t ~threshold =
  List.filter
    (fun v ->
      v <> Tree.source t
      &&
      let old_shr = try Hashtbl.find m v with Not_found -> 0 in
      Tree.shr t v - old_shr > threshold)
    (Tree.on_tree_nodes t)

let run_condition_i ?d_thresh ?(threshold = 1) m t =
  let triggered = drifted m t ~threshold in
  let ws = Dijkstra.workspace ~capacity:(Smrp_graph.Graph.node_count (Tree.graph t)) () in
  (* The failure-free source distances do not change with the tree: one
     search serves every triggered node. *)
  let spf = if triggered = [] then [||] else Smrp.source_spf ~ws t in
  List.fold_left
    (fun acc v ->
      if Tree.is_on_tree t v && v <> Tree.source t then begin
        let switched = try_reshape ?d_thresh ~ws ~spf t v in
        Hashtbl.replace m v (Tree.shr t v);
        if switched then acc + 1 else acc
      end
      else acc)
    0 triggered
