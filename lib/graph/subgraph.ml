type t = {
  graph : Graph.t;
  to_sub : int array;
  from_sub : int array;
  edge_from_sub : int array;
}

let extract g ~keep =
  let n = Graph.node_count g in
  let to_sub = Array.make n (-1) in
  let kept = ref [] in
  for v = n - 1 downto 0 do
    if keep v then kept := v :: !kept
  done;
  let from_sub = Array.of_list !kept in
  Array.iteri (fun sub orig -> to_sub.(orig) <- sub) from_sub;
  let sub = Graph.create (Array.length from_sub) in
  let edge_map = ref [] in
  Graph.iter_edges
    (fun e ->
      let u = to_sub.(e.Graph.u) and v = to_sub.(e.Graph.v) in
      if u >= 0 && v >= 0 then begin
        let id = Graph.add_edge sub u v e.Graph.delay in
        edge_map := (id, e.Graph.id) :: !edge_map
      end)
    g;
  let edge_from_sub = Array.make (Graph.edge_count sub) (-1) in
  List.iter (fun (sub_id, orig_id) -> edge_from_sub.(sub_id) <- orig_id) !edge_map;
  { graph = sub; to_sub; from_sub; edge_from_sub }

let node_to_sub t v = if t.to_sub.(v) < 0 then None else Some t.to_sub.(v)

let node_from_sub t v = t.from_sub.(v)
