module Graph = Smrp_graph.Graph

type t = {
  graph : Graph.t;
  source : int;
  parent : int array;
  parent_edge : int array;
  children : int list array;
  on_tree : bool array;
  member : bool array;
  n_r : int array; (* N_R: members in the subtree rooted at each node *)
  delay : float array; (* delay to source, valid when on_tree *)
  mutable member_count : int;
  shr_cache : int array; (* SHR per on-tree node, valid when shr_valid *)
  mutable shr_valid : bool;
}

let create graph ~source =
  let n = Graph.node_count graph in
  if source < 0 || source >= n then invalid_arg "Tree.create: source out of range";
  let t =
    {
      graph;
      source;
      parent = Array.make n (-1);
      parent_edge = Array.make n (-1);
      children = Array.make n [];
      on_tree = Array.make n false;
      member = Array.make n false;
      n_r = Array.make n 0;
      delay = Array.make n infinity;
      member_count = 0;
      shr_cache = Array.make n 0;
      shr_valid = false;
    }
  in
  t.on_tree.(source) <- true;
  t.delay.(source) <- 0.0;
  t

let graph t = t.graph

let source t = t.source

(* Deep copy sharing only the (immutable-in-practice) graph: the benchmark
   and differential-test workhorse — mutate the copy, keep the original. *)
let copy t =
  {
    graph = t.graph;
    source = t.source;
    parent = Array.copy t.parent;
    parent_edge = Array.copy t.parent_edge;
    children = Array.copy t.children;
    on_tree = Array.copy t.on_tree;
    member = Array.copy t.member;
    n_r = Array.copy t.n_r;
    delay = Array.copy t.delay;
    member_count = t.member_count;
    shr_cache = Array.copy t.shr_cache;
    shr_valid = t.shr_valid;
  }

let check_node t v name =
  if v < 0 || v >= Graph.node_count t.graph then
    invalid_arg (Printf.sprintf "Tree.%s: node %d out of range" name v)

let is_on_tree t v =
  check_node t v "is_on_tree";
  t.on_tree.(v)

let is_member t v =
  check_node t v "is_member";
  t.member.(v)

let member_count t = t.member_count

let collect t pred =
  let acc = ref [] in
  for v = Graph.node_count t.graph - 1 downto 0 do
    if pred v then acc := v :: !acc
  done;
  !acc

let members t = collect t (fun v -> t.member.(v))

let on_tree_nodes t = collect t (fun v -> t.on_tree.(v))

let parent t v =
  check_node t v "parent";
  if t.parent.(v) < 0 then None else Some t.parent.(v)

(* Option-free accessors for hot parent walks (reshape evaluation). *)
let parent_id t v =
  check_node t v "parent_id";
  t.parent.(v)

let parent_edge_id t v =
  check_node t v "parent_edge_id";
  t.parent_edge.(v)

let parent_edge t v =
  check_node t v "parent_edge";
  if t.parent_edge.(v) < 0 then None else Some t.parent_edge.(v)

let children t v =
  check_node t v "children";
  t.children.(v)

let subtree_members t v =
  check_node t v "subtree_members";
  t.n_r.(v)

let delay_to_source t v =
  check_node t v "delay_to_source";
  if not t.on_tree.(v) then invalid_arg "Tree.delay_to_source: node is off-tree";
  t.delay.(v)

let require_on_tree t v name =
  check_node t v name;
  if not t.on_tree.(v) then invalid_arg (Printf.sprintf "Tree.%s: node %d is off-tree" name v)

(* SHR(S, v) = sum of N_R over the tree path v..S (source excluded) obeys the
   top-down recurrence SHR(c) = SHR(parent c) + N_R(c), so one DFS from the
   source refreshes every node.  The cache is invalidated wholesale by any
   mutation (membership or structure) and rebuilt lazily on the next query:
   scans that read SHR for every on-tree node ([Smrp.attach_path]'s
   merge-point scan, [Reshape]'s cache refresh) cost O(1) per lookup
   instead of an O(depth) parent walk. *)
let refresh_shr t =
  if not t.shr_valid then begin
    let rec visit v acc =
      t.shr_cache.(v) <- acc;
      List.iter (fun c -> visit c (acc + t.n_r.(c))) t.children.(v)
    in
    visit t.source 0;
    t.shr_valid <- true
  end

let shr t v =
  require_on_tree t v "shr";
  refresh_shr t;
  t.shr_cache.(v)

let path_to_source t v =
  require_on_tree t v "path_to_source";
  let rec walk v acc = if v = t.source then List.rev (v :: acc) else walk t.parent.(v) (v :: acc) in
  walk v []

let tree_edges t =
  collect t (fun v -> t.parent_edge.(v) >= 0) |> List.map (fun v -> t.parent_edge.(v))

let total_cost t =
  List.fold_left (fun acc eid -> acc +. (Graph.edge t.graph eid).Graph.delay) 0.0 (tree_edges t)

(* The subtree rooted at [v]: [v] first, then preorder. *)
let descendants t v =
  require_on_tree t v "descendants";
  let rec visit v acc = List.fold_left (fun acc c -> visit c acc) (v :: acc) t.children.(v) in
  List.rev (visit v [])

(* Walk the upstream path of [v] (starting at [v] itself) applying [f]. *)
let iter_up t v f =
  let rec walk v =
    f v;
    if v <> t.source then walk t.parent.(v)
  in
  walk v

let graft t ~nodes ~edges =
  t.shr_valid <- false;
  (match nodes with
  | [] | [ _ ] -> invalid_arg "Tree.graft: path needs at least two nodes"
  | merge :: _ -> require_on_tree t merge "graft");
  if List.length edges <> List.length nodes - 1 then invalid_arg "Tree.graft: nodes/edges mismatch";
  let rec splice up rest redges =
    match (rest, redges) with
    | [], [] -> ()
    | v :: rest', eid :: redges' ->
        check_node t v "graft";
        if t.on_tree.(v) then invalid_arg "Tree.graft: interior node already on-tree";
        let e = Graph.edge t.graph eid in
        if not ((e.Graph.u = up && e.Graph.v = v) || (e.Graph.v = up && e.Graph.u = v)) then
          invalid_arg "Tree.graft: edge does not join consecutive nodes";
        t.on_tree.(v) <- true;
        t.parent.(v) <- up;
        t.parent_edge.(v) <- eid;
        t.children.(up) <- v :: t.children.(up);
        t.delay.(v) <- t.delay.(up) +. e.Graph.delay;
        splice v rest' redges'
    | _ -> invalid_arg "Tree.graft: nodes/edges mismatch"
  in
  match nodes with
  | merge :: rest -> splice merge rest edges
  | [] -> assert false

let add_member t v =
  require_on_tree t v "add_member";
  if t.member.(v) then invalid_arg "Tree.add_member: already a member";
  t.shr_valid <- false;
  t.member.(v) <- true;
  t.member_count <- t.member_count + 1;
  iter_up t v (fun r -> t.n_r.(r) <- t.n_r.(r) + 1)

let detach_from_parent t v =
  let p = t.parent.(v) in
  t.children.(p) <- List.filter (fun c -> c <> v) t.children.(p);
  t.parent.(v) <- -1;
  t.parent_edge.(v) <- -1

(* Remove the relay chain starting at [v] upward while nodes carry no
   members, no children and are not the source. *)
let rec prune_up t v =
  if v <> t.source && (not t.member.(v)) && t.children.(v) = [] then begin
    let p = t.parent.(v) in
    detach_from_parent t v;
    t.on_tree.(v) <- false;
    t.delay.(v) <- infinity;
    prune_up t p
  end

let remove_member t v =
  check_node t v "remove_member";
  if not t.member.(v) then invalid_arg "Tree.remove_member: not a member";
  t.shr_valid <- false;
  t.member.(v) <- false;
  t.member_count <- t.member_count - 1;
  iter_up t v (fun r -> t.n_r.(r) <- t.n_r.(r) - 1);
  prune_up t v

(* Shift the delay of a whole subtree by [delta] (used when its root is
   re-homed). *)
let rec shift_delays t v delta =
  t.delay.(v) <- t.delay.(v) +. delta;
  List.iter (fun c -> shift_delays t c delta) t.children.(v)

type branch = {
  root : int;
  nsub : int;
  in_branch : bool array;
  old_root_delay : float;
}

let branch_contains br v = br.in_branch.(v)

let detach_branch t ~node =
  require_on_tree t node "detach_branch";
  if node = t.source then invalid_arg "Tree.detach_branch: cannot detach the source";
  t.shr_valid <- false;
  let in_branch = Array.make (Graph.node_count t.graph) false in
  List.iter (fun v -> in_branch.(v) <- true) (descendants t node);
  let nsub = t.n_r.(node) in
  let old_parent = t.parent.(node) in
  (* Record the previous attachment before pruning: the path from the deepest
     ancestor that survives the detachment down to [node].  An ancestor
     survives when it is the source, a member, or it keeps another child. *)
  let rec survivor v chain_child =
    if v = t.source || t.member.(v) || List.exists (fun c -> c <> chain_child) t.children.(v) then v
    else survivor t.parent.(v) v
  in
  let merge = survivor old_parent node in
  let rec old_path v nodes edges =
    if v = merge then (v :: nodes, edges)
    else old_path t.parent.(v) (v :: nodes) (t.parent_edge.(v) :: edges)
  in
  let previous = old_path node [] [] in
  let br = { root = node; nsub; in_branch; old_root_delay = t.delay.(node) } in
  iter_up t old_parent (fun r -> t.n_r.(r) <- t.n_r.(r) - nsub);
  detach_from_parent t node;
  prune_up t old_parent;
  (br, previous)

let attach_branch t br ~nodes ~edges =
  t.shr_valid <- false;
  let node = br.root in
  (match nodes with
  | [] | [ _ ] -> invalid_arg "Tree.attach_branch: path needs at least two nodes"
  | merge :: _ ->
      require_on_tree t merge "attach_branch";
      if br.in_branch.(merge) then invalid_arg "Tree.attach_branch: merge node inside the branch";
      let rec last = function [ x ] -> x | _ :: tl -> last tl | [] -> assert false in
      if last nodes <> node then invalid_arg "Tree.attach_branch: path must end at the branch root");
  if List.length edges <> List.length nodes - 1 then
    invalid_arg "Tree.attach_branch: nodes/edges mismatch";
  let check_edge up v eid =
    let e = Graph.edge t.graph eid in
    if not ((e.Graph.u = up && e.Graph.v = v) || (e.Graph.v = up && e.Graph.u = v)) then
      invalid_arg "Tree.attach_branch: edge does not join consecutive nodes";
    e
  in
  (* Validate the whole path before touching any state, so a rejected attach
     leaves the tree exactly as it was. *)
  let rec prevalidate up rest redges =
    match (rest, redges) with
    | [ v ], [ eid ] -> ignore (check_edge up v eid)
    | v :: rest', eid :: redges' ->
        check_node t v "attach_branch";
        if br.in_branch.(v) then invalid_arg "Tree.attach_branch: path crosses the branch";
        if t.on_tree.(v) then invalid_arg "Tree.attach_branch: interior node already on-tree";
        ignore (check_edge up v eid);
        prevalidate v rest' redges'
    | _ -> invalid_arg "Tree.attach_branch: nodes/edges mismatch"
  in
  (match nodes with
  | merge :: rest -> prevalidate merge rest edges
  | [] -> assert false);
  let rec splice up rest redges =
    match (rest, redges) with
    | [ v ], [ eid ] ->
        assert (v = node);
        let e = check_edge up v eid in
        t.parent.(v) <- up;
        t.parent_edge.(v) <- eid;
        t.children.(up) <- v :: t.children.(up);
        let new_delay = t.delay.(up) +. e.Graph.delay in
        shift_delays t v (new_delay -. br.old_root_delay)
    | v :: rest', eid :: redges' ->
        check_node t v "attach_branch";
        if br.in_branch.(v) then invalid_arg "Tree.attach_branch: path crosses the branch";
        if t.on_tree.(v) then invalid_arg "Tree.attach_branch: interior node already on-tree";
        let e = check_edge up v eid in
        t.on_tree.(v) <- true;
        t.parent.(v) <- up;
        t.parent_edge.(v) <- eid;
        t.children.(up) <- v :: t.children.(up);
        t.delay.(v) <- t.delay.(up) +. e.Graph.delay;
        (* The count walk below covers the interiors too. *)
        t.n_r.(v) <- 0;
        splice v rest' redges'
    | _ -> invalid_arg "Tree.attach_branch: nodes/edges mismatch"
  in
  (match nodes with
  | merge :: rest -> splice merge rest edges
  | [] -> assert false);
  iter_up t t.parent.(node) (fun r -> t.n_r.(r) <- t.n_r.(r) + br.nsub)

let unsafe_tweak_subtree_members t v delta =
  check_node t v "unsafe_tweak_subtree_members";
  t.n_r.(v) <- t.n_r.(v) + delta;
  t.shr_valid <- false

let validate t =
  let n = Graph.node_count t.graph in
  let fail fmt = Format.kasprintf (fun s -> Error s) fmt in
  let rec check_all v =
    if v >= n then Ok ()
    else if not t.on_tree.(v) then
      if t.member.(v) then fail "off-tree node %d is a member" v
      else if t.n_r.(v) <> 0 then fail "off-tree node %d has N_R = %d" v t.n_r.(v)
      else if t.parent.(v) >= 0 then fail "off-tree node %d has a parent" v
      else if t.children.(v) <> [] then fail "off-tree node %d has children" v
      else check_all (v + 1)
    else begin
      (* On-tree: parent linkage, delay and membership accounting. *)
      let parent_ok =
        if v = t.source then
          if t.parent.(v) >= 0 then fail "source has a parent" else Ok ()
        else if t.parent.(v) < 0 then fail "on-tree node %d lacks a parent" v
        else if not t.on_tree.(t.parent.(v)) then fail "node %d's parent is off-tree" v
        else
          let eid = t.parent_edge.(v) in
          if eid < 0 then fail "node %d lacks a parent edge" v
          else
            let e = Graph.edge t.graph eid in
            let p = t.parent.(v) in
            if not ((e.Graph.u = v && e.Graph.v = p) || (e.Graph.v = v && e.Graph.u = p)) then
              fail "node %d's parent edge does not join it to its parent" v
            else if not (List.mem v t.children.(p)) then
              fail "node %d missing from its parent's child list" v
            else if abs_float (t.delay.(v) -. (t.delay.(p) +. e.Graph.delay)) > 1e-9 then
              fail "node %d has inconsistent delay" v
            else Ok ()
      in
      match parent_ok with
      | Error _ as e -> e
      | Ok () ->
          let count_here = if t.member.(v) then 1 else 0 in
          let expected =
            List.fold_left (fun acc c -> acc + t.n_r.(c)) count_here t.children.(v)
          in
          if t.n_r.(v) <> expected then
            fail "node %d has N_R = %d, expected %d" v t.n_r.(v) expected
          else if
            v <> t.source && (not t.member.(v)) && t.children.(v) = []
          then fail "relay %d has no members downstream (should have been pruned)" v
          else check_all (v + 1)
    end
  in
  match check_all 0 with
  | Error _ as e -> e
  | Ok () ->
      (* Acyclicity / reachability: every on-tree node reaches the source. *)
      let rec reaches v steps =
        if steps > n then false else if v = t.source then true else reaches t.parent.(v) (steps + 1)
      in
      let bad = collect t (fun v -> t.on_tree.(v) && not (reaches v 0)) in
      (match bad with
      | [] ->
          let total = List.fold_left (fun acc m -> acc + if t.member.(m) then 1 else 0) 0 (members t) in
          if total <> t.member_count then
            fail "member_count %d does not match %d marked members" t.member_count total
          else Ok ()
      | v :: _ -> fail "on-tree node %d does not reach the source" v)
