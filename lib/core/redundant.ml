module Graph = Smrp_graph.Graph

type t = {
  graph : Graph.t;
  source : int;
  red_parent : int array;
  red_edge : int array;
  blue_parent : int array;
  blue_edge : int array;
}

(* -- Chain decomposition (Schmidt) ------------------------------------- *)

type chain = { endpoints : int * int; interior : (int * int) list; first_edge : int; last_edge : int }
(* A chain runs ancestor -> back edge -> descendant -> tree edges -> first
   visited node.  [interior] lists (node, tree edge to its successor in the
   walk); [first_edge] is the back edge, [last_edge] joins the final
   interior node to the terminal endpoint (equal to [first_edge] when the
   chain has no interior). *)

let chain_decomposition g ~root =
  let n = Graph.node_count g in
  let parent = Array.make n (-1) in
  let parent_edge = Array.make n (-1) in
  let disc = Array.make n (-1) in
  let order = ref [] in
  let time = ref 0 in
  (* Iterative DFS recording discovery order and tree edges. *)
  let rec explore stack =
    match stack with
    | [] -> ()
    | (u, neighbors) :: rest -> begin
        match neighbors with
        | [] -> explore rest
        | (v, eid) :: tail ->
            if disc.(v) < 0 then begin
              parent.(v) <- u;
              parent_edge.(v) <- eid;
              disc.(v) <- !time;
              incr time;
              order := v :: !order;
              explore ((v, Graph.neighbors g v) :: (u, tail) :: rest)
            end
            else explore ((u, tail) :: rest)
      end
  in
  disc.(root) <- !time;
  incr time;
  order := root :: !order;
  explore [ (root, Graph.neighbors g root) ];
  if !time < n then None (* disconnected *)
  else begin
    let dfs_order = List.rev !order in
    let visited = Array.make n false in
    let edge_in_chain = Array.make (Graph.edge_count g) false in
    let chains = ref [] in
    visited.(root) <- true;
    List.iter
      (fun v ->
        (* Back edges whose ancestor endpoint is v: the other endpoint is a
           descendant with larger discovery time and the edge is not the
           tree edge of either endpoint. *)
        List.iter
          (fun (d, eid) ->
            let is_tree = parent_edge.(d) = eid || parent_edge.(v) = eid in
            if (not is_tree) && disc.(d) > disc.(v) then begin
              edge_in_chain.(eid) <- true;
              (* Walk tree edges upward from d until a visited node. *)
              let rec walk u acc last_edge =
                if visited.(u) then (u, List.rev acc, last_edge)
                else begin
                  visited.(u) <- true;
                  let e = parent_edge.(u) in
                  edge_in_chain.(e) <- true;
                  walk parent.(u) ((u, e) :: acc) e
                end
              in
              let terminal, interior, last_edge = walk d [] eid in
              chains := { endpoints = (v, terminal); interior; first_edge = eid; last_edge } :: !chains
            end)
          (Graph.neighbors g v))
      dfs_order;
    (* 2-edge-connected iff every edge lies in some chain. *)
    let all_covered = ref (Graph.edge_count g > 0 || n = 1) in
    Graph.iter_edges (fun e -> if not edge_in_chain.(e.Graph.id) then all_covered := false) g;
    if !all_covered then Some (List.rev !chains) else None
  end

(* -- MFBG construction -------------------------------------------------- *)

let build g ~source =
  let n = Graph.node_count g in
  if source < 0 || source >= n then invalid_arg "Redundant.build: source out of range";
  if n = 1 then
    Some
      {
        graph = g;
        source;
        red_parent = [| -1 |];
        red_edge = [| -1 |];
        blue_parent = [| -1 |];
        blue_edge = [| -1 |];
      }
  else
    match chain_decomposition g ~root:source with
    | None -> None
    | Some [] -> None
    | Some (first :: rest) ->
        let red_parent = Array.make n (-1) in
        let red_edge = Array.make n (-1) in
        let blue_parent = Array.make n (-1) in
        let blue_edge = Array.make n (-1) in
        (* Total order maintained as a list, source at both conceptual
           ends; position lookup by array index, renumbered per insertion
           (n is small in all uses). *)
        let position = Array.make n (-1) in
        let sequence = ref [ source ] in
        let renumber () = List.iteri (fun i v -> position.(v) <- i) !sequence in
        let insert_after anchor nodes =
          let rec splice = function
            | [] -> invalid_arg "Redundant.build: anchor not in order"
            | x :: tl when x = anchor -> x :: (nodes @ tl)
            | x :: tl -> x :: splice tl
          in
          sequence := splice !sequence;
          renumber ()
        in
        renumber ();
        (* First chain: a cycle through the source. *)
        let lay_cycle chain =
          let v, terminal = chain.endpoints in
          assert (v = source && terminal = source);
          let interior = chain.interior in
          (match interior with
          | [] -> invalid_arg "Redundant.build: degenerate first chain"
          | (x1, _) :: _ ->
              (* Walk order is v -(first_edge)- x1 -(e1)- x2 ... xk -(last)-
                 terminal.  Red goes back towards v; blue forwards to
                 terminal. *)
              red_parent.(x1) <- v;
              red_edge.(x1) <- chain.first_edge;
              let rec link = function
                | (xa, ea) :: ((xb, _) :: _ as tl) ->
                    blue_parent.(xa) <- xb;
                    blue_edge.(xa) <- ea;
                    red_parent.(xb) <- xa;
                    red_edge.(xb) <- ea;
                    link tl
                | [ (xk, ek) ] ->
                    blue_parent.(xk) <- terminal;
                    blue_edge.(xk) <- ek
                | [] -> ()
              in
              link interior;
              insert_after source (List.map fst interior))
        in
        lay_cycle first;
        let lay_ear chain =
          match chain.interior with
          | [] -> () (* a single redundant edge: contributes no tree state *)
          | interior ->
              let a, b = chain.endpoints in
              (* Orient so the chain walk starts at the lower-ordered
                 endpoint: if it does not, reverse the walk. *)
              let forward = position.(a) <= position.(b) in
              let u, w, walk =
                if forward then (a, b, (chain.first_edge, interior, chain.last_edge))
                else begin
                  (* Reverse: interior nodes in reverse order; edge towards
                     the new predecessor is the successor edge of the
                     original walk. *)
                  let nodes = List.map fst interior in
                  let edges = chain.first_edge :: List.map snd interior in
                  (* edges has length interior+1; reversed pairing. *)
                  let rev_nodes = List.rev nodes in
                  let rev_edges = List.rev edges in
                  match rev_edges with
                  | first :: others ->
                      let rebuilt =
                        List.map2 (fun node e -> (node, e)) rev_nodes others
                      in
                      (b, a, (first, rebuilt, List.nth edges 0))
                  | [] -> assert false
                end
              in
              let first_edge, interior, _last = walk in
              (match interior with
              | (x1, _) :: _ ->
                  red_parent.(x1) <- u;
                  red_edge.(x1) <- first_edge;
                  let rec link = function
                    | (xa, ea) :: ((xb, _) :: _ as tl) ->
                        blue_parent.(xa) <- xb;
                        blue_edge.(xa) <- ea;
                        red_parent.(xb) <- xa;
                        red_edge.(xb) <- ea;
                        link tl
                    | [ (xk, ek) ] ->
                        blue_parent.(xk) <- w;
                        blue_edge.(xk) <- ek
                    | [] -> ()
                  in
                  link interior;
                  insert_after u (List.map fst interior)
              | [] -> ())
        in
        List.iter lay_ear rest;
        Some { graph = g; source; red_parent; red_edge; blue_parent; blue_edge }

let path parent edge t v =
  let rec walk v nodes edges steps =
    if steps > Graph.node_count t.graph then invalid_arg "Redundant: cyclic parent chain"
    else if v = t.source then (List.rev (v :: nodes), List.rev edges)
    else walk parent.(v) (v :: nodes) (edge.(v) :: edges) (steps + 1)
  in
  walk v [] [] 0

let red_path t v = path t.red_parent t.red_edge t v

let blue_path t v = path t.blue_parent t.blue_edge t v

let paths_disjoint t v =
  let _, red = red_path t v in
  let _, blue = blue_path t v in
  let module S = Set.Make (Int) in
  S.is_empty (S.inter (S.of_list red) (S.of_list blue))

let survives t f ~member =
  Failure.node_ok f member
  &&
  let ok (nodes, edges) =
    List.for_all (Failure.node_ok f) nodes && List.for_all (Failure.edge_ok t.graph f) edges
  in
  ok (red_path t member) || ok (blue_path t member)

let path_delay t edges =
  List.fold_left (fun acc e -> acc +. (Graph.edge t.graph e).Graph.delay) 0.0 edges

let delay t v =
  let _, red = red_path t v in
  let _, blue = blue_path t v in
  Float.min (path_delay t red) (path_delay t blue)

let worst_delay t v =
  let _, red = red_path t v in
  let _, blue = blue_path t v in
  Float.max (path_delay t red) (path_delay t blue)

let provisioned_cost t ~receivers =
  let module S = Set.Make (Int) in
  let edges =
    List.fold_left
      (fun acc v ->
        let _, red = red_path t v in
        let _, blue = blue_path t v in
        S.union acc (S.union (S.of_list red) (S.of_list blue)))
      S.empty receivers
  in
  S.fold (fun e acc -> acc +. (Graph.edge t.graph e).Graph.delay) edges 0.0
