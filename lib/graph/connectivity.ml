let always _ = true

let reachable_from ?(node_ok = always) ?(edge_ok = always) g start =
  let n = Graph.node_count g in
  let seen = Array.make n false in
  if node_ok start then begin
    let queue = Queue.create () in
    seen.(start) <- true;
    Queue.add start queue;
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      let visit (v, eid) =
        if node_ok v && edge_ok eid && not seen.(v) then begin
          seen.(v) <- true;
          Queue.add v queue
        end
      in
      List.iter visit (Graph.neighbors g u)
    done
  end;
  seen

type union_find = int array

let union_find n = Array.init n (fun i -> i)

let rec find parent i =
  let p = parent.(i) in
  if p = i then i
  else begin
    let r = find parent p in
    parent.(i) <- r;
    r
  end

let union parent a b =
  let ra = find parent a and rb = find parent b in
  if ra = rb then false
  else begin
    parent.(ra) <- rb;
    true
  end

(* Tarjan's bridge finding, iterative: an explicit stack avoids overflow
   on large topologies.  Tree edge (parent, child) is a bridge iff
   low(child) = disc(child): nothing in the child's subtree reaches above
   the child.  A node's low value is final once it leaves the stack. *)
let bridges g =
  let n = Graph.node_count g in
  let disc = Array.make n (-1) and low = Array.make n (-1) and parent_edge = Array.make n (-1) in
  let time = ref 0 and found = ref [] in
  let discover v =
    disc.(v) <- !time;
    low.(v) <- !time;
    incr time
  in
  for root = 0 to n - 1 do
    if disc.(root) < 0 then begin
      (* Stack frames: (node, remaining adjacency). *)
      let stack = ref [ (root, Graph.neighbors g root) ] in
      discover root;
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | (u, []) :: rest -> (
            stack := rest;
            match rest with
            | (p, _) :: _ ->
                if low.(u) < low.(p) then low.(p) <- low.(u);
                if low.(u) = disc.(u) then found := parent_edge.(u) :: !found
            | [] -> ())
        | (u, (v, eid) :: tail) :: rest ->
            stack := (u, tail) :: rest;
            if disc.(v) < 0 then begin
              parent_edge.(v) <- eid;
              discover v;
              stack := (v, Graph.neighbors g v) :: !stack
            end
            else if eid <> parent_edge.(u) && disc.(v) < low.(u) then low.(u) <- disc.(v)
      done
    end
  done;
  List.sort_uniq compare !found
