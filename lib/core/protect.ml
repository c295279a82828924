(* Precomputed local-detour protection tables (Bhosle & Gonzalez style).

   For every tree edge [e] (child side [c]) the table holds the {e branch
   detour} that re-attaches the subtree below [e] should [e] fail — and,
   keyed by the same edge id, the detour that re-attaches that subtree
   should the edge's {e upstream endpoint} fail (node protection; the
   upstream node must not be the source).  Entries live in flat arrays
   keyed by CSR edge id: merge node, recovery distance, and an offset/
   length pair into shared path arenas, so answering "where does this
   branch go if its uplink dies?" is a handful of array reads instead of a
   candidate search.

   Invalidation is deliberately wholesale: any tree mutation can change
   any entry's optimum (a new member anywhere adds merge targets), so
   mutations bump a version counter in O(1) and entries refresh lazily on
   lookup; each refresh is one nearest-target search, so it costs the ball
   around its merge point.  {!Session} never prepares: it reads the tables
   only for the first failure of a session, so the entries that failure
   asks for are the only ones worth computing.  [prepare] refreshes every
   entry eagerly, for callers that want the whole table warm (benchmarks).
   A lookup against a fresh entry allocates nothing until the path is
   decoded. *)

module Graph = Smrp_graph.Graph
module Dijkstra = Smrp_graph.Dijkstra

type stats = { lookups : int; recomputes : int }

type t = {
  mutable tree : Tree.t;
  n : int;
  m : int;
  ws : Dijkstra.workspace;
  (* Euler intervals of the current tree for O(1) subtree membership:
     [x] is in the subtree of [c] iff [tin.(c) <= tin.(x) < tout.(c)].
     Off-tree nodes carry [tin = -1]. *)
  tin : int array;
  tout : int array;
  mutable euler_version : int;
  mutable version : int; (* bumped by [invalidate] *)
  (* Link protection, keyed by tree-edge id. *)
  link_version : int array;
  link_merge : int array; (* -1 no detour, -2 not a tree edge *)
  link_rd : float array;
  link_off : int array;
  link_len : int array; (* path edge count *)
  (* Node protection (upstream endpoint of the keyed edge fails). *)
  node_version : int array;
  node_merge : int array; (* -2 also when the upstream endpoint is the source *)
  node_rd : float array;
  node_off : int array;
  node_len : int array;
  (* Shared path arenas: entry [i] stores nodes [off..off+len] (root first,
     merge last) and edges [off..off+len-1]. *)
  mutable arena_nodes : int array;
  mutable arena_edges : int array;
  mutable arena_used : int;
  mutable lookups : int;
  mutable recomputes : int;
}

type entry = {
  root : int;
  merge : int;
  recovery_distance : float;
  path_nodes : int list; (* root ... merge *)
  path_edges : int list;
}

let create tree =
  let g = Tree.graph tree in
  let n = Graph.node_count g in
  let m = Graph.edge_count g in
  {
    tree;
    n;
    m;
    ws = Dijkstra.workspace ~capacity:n ();
    tin = Array.make n (-1);
    tout = Array.make n (-1);
    euler_version = -1;
    version = 0;
    link_version = Array.make m (-1);
    link_merge = Array.make m (-2);
    link_rd = Array.make m infinity;
    link_off = Array.make m 0;
    link_len = Array.make m 0;
    node_version = Array.make m (-1);
    node_merge = Array.make m (-2);
    node_rd = Array.make m infinity;
    node_off = Array.make m 0;
    node_len = Array.make m 0;
    arena_nodes = Array.make (max 16 n) 0;
    arena_edges = Array.make (max 16 n) 0;
    arena_used = 0;
    lookups = 0;
    recomputes = 0;
  }

let invalidate t = t.version <- t.version + 1

let retarget t tree =
  t.tree <- tree;
  invalidate t

let stats (t : t) : stats = { lookups = t.lookups; recomputes = t.recomputes }

(* -- Euler tour ---------------------------------------------------------- *)

let refresh_euler t =
  if t.euler_version <> t.version then begin
    Array.fill t.tin 0 t.n (-1);
    let clock = ref 0 in
    (* Recursive preorder walk over the tree's child lists. *)
    let rec enter v =
      t.tin.(v) <- !clock;
      incr clock;
      List.iter enter (Tree.children t.tree v);
      t.tout.(v) <- !clock
    in
    enter (Tree.source t.tree);
    t.euler_version <- t.version
  end

let in_subtree t ~root x =
  let ti = t.tin.(x) in
  ti >= 0 && ti >= t.tin.(root) && ti < t.tout.(root)

(* -- Entry recomputation ------------------------------------------------- *)

let grow_arena t need =
  if t.arena_used + need > Array.length t.arena_nodes then begin
    let cap = max (2 * Array.length t.arena_nodes) (t.arena_used + need) in
    let nodes = Array.make cap 0 and edges = Array.make cap 0 in
    Array.blit t.arena_nodes 0 nodes 0 t.arena_used;
    Array.blit t.arena_edges 0 edges 0 t.arena_used;
    t.arena_nodes <- nodes;
    t.arena_edges <- edges
  end

(* The merge-eligibility predicate shared with the oracle: on-tree, outside
   the orphaned region, alive, and still on the tree after the post-failure
   pruning — i.e. the source, or a node with surviving members below it.
   [cut] is the root of the orphaned region (the branch root for link
   protection, the failed node for node protection); ancestors of [cut]
   lose its [N_R] contribution. *)
let eligible_fn t f ~cut =
  let tree = t.tree in
  let source = Tree.source tree in
  let cut_members = Tree.subtree_members tree cut in
  fun v ->
    Tree.is_on_tree tree v
    && (not (in_subtree t ~root:cut v))
    && Failure.node_ok f v
    &&
    (v = source
    ||
    let nr = Tree.subtree_members tree v in
    let nr = if in_subtree t ~root:v cut then nr - cut_members else nr in
    nr > 0)

(* Compute one entry into the flat arrays.  [cut] delimits the orphaned
   region; [root] is the branch being re-homed (equal to [cut] for link
   protection, a child of it for node protection). *)
let compute_entry t f ~root ~cut ~merge_a ~rd_a ~off_a ~len_a ~ver_a ~eid =
  t.recomputes <- t.recomputes + 1;
  refresh_euler t;
  let eligible = eligible_fn t f ~cut in
  (match Recovery.branch_detour ~ws:t.ws t.tree f ~root ~eligible with
  | None ->
      merge_a.(eid) <- -1;
      rd_a.(eid) <- infinity;
      off_a.(eid) <- 0;
      len_a.(eid) <- 0
  | Some d ->
      let len = List.length d.Recovery.path_edges in
      grow_arena t (len + 1);
      let off = t.arena_used in
      List.iteri (fun i v -> t.arena_nodes.(off + i) <- v) d.Recovery.path_nodes;
      List.iteri (fun i e -> t.arena_edges.(off + i) <- e) d.Recovery.path_edges;
      t.arena_used <- off + len + 1;
      merge_a.(eid) <- d.Recovery.merge;
      rd_a.(eid) <- d.Recovery.recovery_distance;
      off_a.(eid) <- off;
      len_a.(eid) <- len);
  ver_a.(eid) <- t.version

let downstream tree eid =
  let e = Graph.edge (Tree.graph tree) eid in
  if Tree.parent_edge_id tree e.Graph.u = eid then e.Graph.u
  else if Tree.parent_edge_id tree e.Graph.v = eid then e.Graph.v
  else -1

let refresh_link t eid =
  let c = downstream t.tree eid in
  if c < 0 then begin
    t.link_merge.(eid) <- -2;
    t.link_version.(eid) <- t.version
  end
  else
    compute_entry t (Failure.Link eid) ~root:c ~cut:c ~merge_a:t.link_merge ~rd_a:t.link_rd
      ~off_a:t.link_off ~len_a:t.link_len ~ver_a:t.link_version ~eid

let refresh_node t eid =
  let c = downstream t.tree eid in
  let p = if c < 0 then -1 else Tree.parent_id t.tree c in
  if c < 0 || p < 0 || p = Tree.source t.tree then begin
    t.node_merge.(eid) <- -2;
    t.node_version.(eid) <- t.version
  end
  else
    compute_entry t (Failure.Node p) ~root:c ~cut:p ~merge_a:t.node_merge ~rd_a:t.node_rd
      ~off_a:t.node_off ~len_a:t.node_len ~ver_a:t.node_version ~eid

(* -- Queries ------------------------------------------------------------- *)

let check_eid t eid name =
  if eid < 0 || eid >= t.m then
    invalid_arg (Printf.sprintf "Protect.%s: bad edge id %d" name eid)

let decode t ~merge_a ~rd_a ~off_a ~len_a eid =
  let merge = merge_a.(eid) in
  if merge < 0 then None
  else begin
    let off = off_a.(eid) and len = len_a.(eid) in
    let nodes = ref [] and edges = ref [] in
    for i = off + len downto off do
      nodes := t.arena_nodes.(i) :: !nodes
    done;
    for i = off + len - 1 downto off do
      edges := t.arena_edges.(i) :: !edges
    done;
    Some
      {
        root = t.arena_nodes.(off);
        merge;
        recovery_distance = rd_a.(eid);
        path_nodes = !nodes;
        path_edges = !edges;
      }
  end

let link_lookup t eid =
  check_eid t eid "link_lookup";
  t.lookups <- t.lookups + 1;
  if t.link_version.(eid) <> t.version then refresh_link t eid;
  decode t ~merge_a:t.link_merge ~rd_a:t.link_rd ~off_a:t.link_off ~len_a:t.link_len eid

let node_lookup t eid =
  check_eid t eid "node_lookup";
  t.lookups <- t.lookups + 1;
  if t.node_version.(eid) <> t.version then refresh_node t eid;
  decode t ~merge_a:t.node_merge ~rd_a:t.node_rd ~off_a:t.node_off ~len_a:t.node_len eid

(* Raw hot-path read for benchmarking the lookup itself: entry must be
   fresh (i.e. after [prepare] with no intervening mutation). *)
let link_rd t eid = t.link_rd.(eid)

let prepare t =
  refresh_euler t;
  (* Compact the arenas: everything is about to be rewritten. *)
  t.arena_used <- 0;
  let tree = t.tree in
  List.iter
    (fun eid ->
      refresh_link t eid;
      refresh_node t eid)
    (Tree.tree_edges tree)
