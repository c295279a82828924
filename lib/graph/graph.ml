type edge = { id : int; u : int; v : int; delay : float; cost : float }

(* The adjacency lives in two forms.  [adj] is the mutable build-side
   structure ((neighbor, edge id) lists in reverse insertion order), cheap to
   extend one edge at a time.  The read path uses a CSR (compressed sparse
   row) view — flat int/float arrays indexed by [adj_offsets] — rebuilt
   lazily whenever an edge has been added since the last freeze, so settled
   traversals (Dijkstra, DFS) touch only contiguous unboxed arrays and
   allocate nothing. *)
type t = {
  n : int;
  mutable edges : edge array;
  mutable edge_count : int;
  adj : (int * int) list array; (* node -> (neighbor, edge id), reversed order *)
  mutable csr_edge_count : int; (* edges included in the CSR view; -1 = never built *)
  mutable adj_offsets : int array; (* n + 1 entries; slice of node u is
                                      [adj_offsets.(u), adj_offsets.(u+1)) *)
  mutable adj_neighbor : int array;
  mutable adj_edge : int array;
  mutable adj_delay : float array;
}

let create n =
  if n < 0 then invalid_arg "Graph.create: negative node count";
  {
    n;
    edges = [||];
    edge_count = 0;
    adj = Array.make n [];
    csr_edge_count = -1;
    adj_offsets = [||];
    adj_neighbor = [||];
    adj_edge = [||];
    adj_delay = [||];
  }

let node_count g = g.n

let edge_count g = g.edge_count

let check_node g u name =
  if u < 0 || u >= g.n then invalid_arg (Printf.sprintf "Graph.%s: node %d out of range" name u)

(* Both endpoint checks hoisted here: every binary edge query funnels through
   this single lookup, which scans the (short) build-side list once. *)
let find_edge_id g u v name =
  check_node g u name;
  check_node g v name;
  let rec scan = function
    | [] -> -1
    | (w, id) :: rest -> if w = v then id else scan rest
  in
  scan g.adj.(u)

let mem_edge g u v = find_edge_id g u v "mem_edge" >= 0

let edge_between g u v =
  let id = find_edge_id g u v "edge_between" in
  if id < 0 then None else Some g.edges.(id)

let add_edge ?cost g u v delay =
  (* The duplicate lookup already bounds-checks both endpoints. *)
  if find_edge_id g u v "add_edge" >= 0 then invalid_arg "Graph.add_edge: duplicate edge";
  if u = v then invalid_arg "Graph.add_edge: self-loop";
  if Float.is_nan delay || delay = infinity then invalid_arg "Graph.add_edge: non-finite delay";
  if delay <= 0.0 then invalid_arg "Graph.add_edge: delay must be positive";
  let cost = match cost with Some c -> c | None -> delay in
  if Float.is_nan cost || Float.abs cost = infinity then invalid_arg "Graph.add_edge: non-finite cost";
  let id = g.edge_count in
  let e = { id; u; v; delay; cost } in
  let capacity = Array.length g.edges in
  if id = capacity then begin
    let edges' = Array.make (max 16 (2 * capacity)) e in
    Array.blit g.edges 0 edges' 0 id;
    g.edges <- edges'
  end;
  g.edges.(id) <- e;
  g.edge_count <- id + 1;
  g.adj.(u) <- (v, id) :: g.adj.(u);
  g.adj.(v) <- (u, id) :: g.adj.(v);
  id

let edge g id =
  if id < 0 || id >= g.edge_count then invalid_arg "Graph.edge: bad edge id";
  g.edges.(id)

let other_end e u =
  if e.u = u then e.v
  else if e.v = u then e.u
  else invalid_arg "Graph.other_end: node not an endpoint"

(* Build the CSR view from the edge array.  Filling in edge-id order yields
   insertion-order slices, matching the historical [neighbors] contract. *)
let freeze g =
  if g.csr_edge_count <> g.edge_count then begin
    let m = g.edge_count in
    let offsets = Array.make (g.n + 1) 0 in
    for id = 0 to m - 1 do
      let e = g.edges.(id) in
      offsets.(e.u + 1) <- offsets.(e.u + 1) + 1;
      offsets.(e.v + 1) <- offsets.(e.v + 1) + 1
    done;
    for u = 1 to g.n do
      offsets.(u) <- offsets.(u) + offsets.(u - 1)
    done;
    let neighbor = Array.make (2 * m) 0 in
    let edge_ids = Array.make (2 * m) 0 in
    let delays = Array.make (2 * m) 0.0 in
    let cursor = Array.copy offsets in
    for id = 0 to m - 1 do
      let e = g.edges.(id) in
      let cu = cursor.(e.u) in
      neighbor.(cu) <- e.v;
      edge_ids.(cu) <- id;
      delays.(cu) <- e.delay;
      cursor.(e.u) <- cu + 1;
      let cv = cursor.(e.v) in
      neighbor.(cv) <- e.u;
      edge_ids.(cv) <- id;
      delays.(cv) <- e.delay;
      cursor.(e.v) <- cv + 1
    done;
    g.adj_offsets <- offsets;
    g.adj_neighbor <- neighbor;
    g.adj_edge <- edge_ids;
    g.adj_delay <- delays;
    g.csr_edge_count <- m
  end

(* Zero-cost view of the frozen adjacency for tight loops (Dijkstra's
   relaxation): the physical CSR arrays, which the caller must treat as
   read-only and must not retain across a graph mutation. *)
let csr g =
  freeze g;
  (g.adj_offsets, g.adj_neighbor, g.adj_edge, g.adj_delay)

(* The frozen twin of [find_edge_id]: a scan of [u]'s contiguous CSR slice,
   for per-frame lookups.  Building code keeps to the list scan, which never
   triggers a freeze. *)
let find_edge g u v =
  check_node g u "find_edge";
  check_node g v "find_edge";
  freeze g;
  let i = ref g.adj_offsets.(u) in
  let stop = g.adj_offsets.(u + 1) in
  while !i < stop && g.adj_neighbor.(!i) <> v do
    incr i
  done;
  if !i < stop then g.adj_edge.(!i) else -1

let iter_neighbors g u f =
  check_node g u "iter_neighbors";
  freeze g;
  let stop = g.adj_offsets.(u + 1) in
  for i = g.adj_offsets.(u) to stop - 1 do
    f g.adj_neighbor.(i) g.adj_edge.(i) g.adj_delay.(i)
  done

let neighbors g u =
  check_node g u "neighbors";
  freeze g;
  let acc = ref [] in
  let lo = g.adj_offsets.(u) in
  for i = g.adj_offsets.(u + 1) - 1 downto lo do
    acc := (g.adj_neighbor.(i), g.adj_edge.(i)) :: !acc
  done;
  !acc

let degree g u =
  check_node g u "degree";
  freeze g;
  g.adj_offsets.(u + 1) - g.adj_offsets.(u)

let average_degree g = if g.n = 0 then 0.0 else 2.0 *. float_of_int g.edge_count /. float_of_int g.n

let iter_edges f g =
  for id = 0 to g.edge_count - 1 do
    f g.edges.(id)
  done

let fold_edges f init g =
  let acc = ref init in
  iter_edges (fun e -> acc := f !acc e) g;
  !acc

let total_cost g = fold_edges (fun acc e -> acc +. e.cost) 0.0 g

let delay_of_edges g edge_ids =
  List.fold_left (fun acc eid -> acc +. (edge g eid).delay) 0.0 edge_ids
