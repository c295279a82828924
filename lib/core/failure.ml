module Graph = Smrp_graph.Graph

type t = Link of int | Node of int | Multi of t list

let compose = function [ f ] -> f | fs -> Multi fs

(* Plain recursion over the nesting: a [List.for_all] with a capturing
   closure would allocate one closure per level per call. *)
let rec node_ok f v =
  match f with Link _ -> true | Node u -> v <> u | Multi fs -> all_nodes_ok fs v

and all_nodes_ok fs v = match fs with [] -> true | f :: rest -> node_ok f v && all_nodes_ok rest v

let rec edge_ok g f eid =
  match f with
  | Link e -> eid <> e
  | Node u ->
      let e = Graph.edge g eid in
      e.Graph.u <> u && e.Graph.v <> u
  | Multi fs -> all_edges_ok g fs eid

and all_edges_ok g fs eid =
  match fs with [] -> true | f :: rest -> edge_ok g f eid && all_edges_ok g rest eid

(* Membership in a sorted array by binary search over [lo, hi). *)
let rec mem_sorted (a : int array) (x : int) lo hi =
  if lo >= hi then false
  else begin
    let mid = (lo + hi) lsr 1 in
    let y = Array.unsafe_get a mid in
    if y = x then true else if y < x then mem_sorted a x (mid + 1) hi else mem_sorted a x lo mid
  end

let always _ = true

(* The complement of a set of ids as a predicate. *)
let outside ids =
  match Array.of_list ids with
  | [||] -> always
  | a ->
      Array.sort Int.compare a;
      let len = Array.length a in
      fun x -> not (mem_sorted a x 0 len)

let compile g f =
  let nodes = ref [] and edges = ref [] in
  let rec collect = function
    | Link e -> edges := e :: !edges
    | Node u -> nodes := u :: !nodes
    | Multi fs -> List.iter collect fs
  in
  collect f;
  (* A dead node kills its incident links: read them off the CSR rows of
     the dead nodes only, so the cost follows the failure, not the graph.
     An id outside the graph has no row, and [edge_ok] spares every edge
     for it too. *)
  let n = Graph.node_count g in
  let offsets, _, eids, _ = Graph.csr g in
  List.iter
    (fun u ->
      if u >= 0 && u < n then
        for i = offsets.(u) to offsets.(u + 1) - 1 do
          edges := eids.(i) :: !edges
        done)
    !nodes;
  (outside !nodes, outside !edges)

type filters = (int -> bool) * (int -> bool)

(* A lone link needs no arrays. *)
let filters g f =
  match f with Link e -> (always, fun x -> x <> e) | Node _ | Multi _ -> compile g f

(* The session's compiled form: one byte per node and per edge, '\001' when
   dead.  A check is one load, with no search, and a failure is added in
   time proportional to its own size. *)
type mask = { graph : Graph.t; dead_nodes : Bytes.t; dead_edges : Bytes.t; mask_filters : filters }

let mask g =
  let dead_nodes = Bytes.make (Graph.node_count g) '\000' in
  let dead_edges = Bytes.make (Graph.edge_count g) '\000' in
  let node_ok v = Bytes.get dead_nodes v = '\000' and edge_ok e = Bytes.get dead_edges e = '\000' in
  { graph = g; dead_nodes; dead_edges; mask_filters = (node_ok, edge_ok) }

let rec kill m = function
  | Link e -> Bytes.set m.dead_edges e '\001'
  | Node u ->
      Bytes.set m.dead_nodes u '\001';
      let offsets, _, eids, _ = Graph.csr m.graph in
      for i = offsets.(u) to offsets.(u + 1) - 1 do
        Bytes.set m.dead_edges eids.(i) '\001'
      done
  | Multi fs -> List.iter (kill m) fs

let mask_filters m = m.mask_filters

let worst_case_for_member t r =
  if r = Tree.source t then None
  else begin
    (* The first link below the source on the source→r tree path. *)
    match Tree.path_to_source t r with
    | _ :: _ ->
        let rec first_below_source v =
          match Tree.parent t v with
          | Some p when p = Tree.source t -> Option.get (Tree.parent_edge t v)
          | Some p -> first_below_source p
          | None -> invalid_arg "Failure.worst_case_for_member: detached node"
        in
        Some (Link (first_below_source r))
    | [] -> None
  end

let tree_connected t f =
  let g = Tree.graph t in
  let connected = Array.make (Graph.node_count g) false in
  let s = Tree.source t in
  if node_ok f s then begin
    let rec visit v =
      connected.(v) <- true;
      List.iter
        (fun c ->
          match Tree.parent_edge t c with
          | Some eid when node_ok f c && edge_ok g f eid -> visit c
          | _ -> ())
        (Tree.children t v)
    in
    visit s
  end;
  connected

let affected_members t f =
  let connected = tree_connected t f in
  List.filter (fun m -> (not connected.(m)) && node_ok f m) (Tree.members t)

let rec pp g ppf = function
  | Link eid ->
      let e = Graph.edge g eid in
      Format.fprintf ppf "link failure %d--%d (edge %d)" e.Graph.u e.Graph.v eid
  | Node v -> Format.fprintf ppf "node failure %d" v
  | Multi fs ->
      Format.fprintf ppf "@[<h>multiple failures:";
      List.iter (fun f -> Format.fprintf ppf " [%a]" (pp g) f) fs;
      Format.fprintf ppf "@]"
