(* Incremental single-source shortest paths (dynamic SPF) over the frozen
   CSR adjacency, in the classic affected-subtree style (Ramalingam–Reps /
   Frigioni et al.): the structure keeps the full source-rooted shortest-path
   tree — distance, parent, parent edge and an intrusive child list per
   node — and patches it under failures and restorations instead of
   re-running Dijkstra.

   A deletion of a tree edge orphans exactly the
   subtree hanging below it.  Only those nodes can change: the repair
   collects them, seeds a workspace heap with the best re-attachment
   candidate of each orphan through its {e boundary} edges (edges into the
   untouched region, whose distances are still valid), and runs a
   Dijkstra-style relaxation confined to the orphaned set.  Nodes outside
   the subtree are never read beyond their settled distances and never
   written, so a leaf-edge failure costs O(degree) while a full recompute
   costs O(E log V).

   An edge restoration runs the dual "grow" phase: seed the
   heap with the improvements the revived edge enables and cascade
   strictly decreasing distances outward; the cascade dies out at the
   frontier where the old tree is already as short.

   All state is epoch-stamped (PR-2 style): [mark]/[settled]/[cand_stamp]
   arrays are invalidated wholesale by bumping [stamp], and the repair
   borrows the same unboxed {!Int_heap} as the Dijkstra workspace, so a
   mutation allocates nothing beyond what it must.

   Distances computed here are bit-identical to a fresh
   {!Dijkstra.run_reference} over the surviving elements: both compute the
   same least-fixpoint parent by parent from the source, and float sums
   along identical parent chains associate identically. *)

type t = {
  g : Graph.t;
  src : int;
  n : int;
  (* CSR views captured at creation; the graph must not gain edges while
     the structure is live. *)
  offsets : int array;
  nbr : int array;
  eids : int array;
  (* Per-edge delays, copied from the graph, and the overlay's failure
     flags.  The graph itself is never touched. *)
  delay : float array;
  edge_dead : bool array;
  node_dead : bool array;
  (* The maintained shortest-path tree. *)
  dist : float array; (* infinity = unreachable *)
  parent : int array;
  parent_edge : int array;
  first_child : int array; (* intrusive doubly-linked child lists *)
  next_sib : int array;
  prev_sib : int array;
  (* Repair workspace, epoch-stamped by [stamp]. *)
  heap : Int_heap.t;
  mark : int array; (* node is in the current affected set *)
  settled : int array; (* node re-settled in the current repair *)
  cand_d : float array;
  cand_p : int array;
  cand_e : int array;
  cand_stamp : int array;
  queue : int array; (* affected-set collection, BFS order *)
  mutable stamp : int;
  (* Cumulative locality evidence: mutations applied and nodes whose state
     a repair touched (the affected sets' total size). *)
  mutable ops : int;
  mutable touched : int;
}

type stats = { ops : int; touched : int }

let stats (t : t) = { ops = t.ops; touched = t.touched }

(* -- Child-list surgery -------------------------------------------------- *)

let unlink t c =
  let p = t.parent.(c) in
  if p >= 0 then begin
    let pr = t.prev_sib.(c) and nx = t.next_sib.(c) in
    if pr >= 0 then t.next_sib.(pr) <- nx else t.first_child.(p) <- nx;
    if nx >= 0 then t.prev_sib.(nx) <- pr
  end;
  t.prev_sib.(c) <- -1;
  t.next_sib.(c) <- -1

let link t p c =
  let h = t.first_child.(p) in
  t.next_sib.(c) <- h;
  t.prev_sib.(c) <- -1;
  if h >= 0 then t.prev_sib.(h) <- c;
  t.first_child.(p) <- c

(* -- Settling ------------------------------------------------------------ *)

let[@inline] seed t v d p e =
  t.cand_d.(v) <- d;
  t.cand_p.(v) <- p;
  t.cand_e.(v) <- e;
  t.cand_stamp.(v) <- t.stamp;
  Int_heap.add t.heap d v

(* Settle the marked set [queue.(0 .. count-1)] from the seeds on the
   heap, relaxing only into marked nodes; a node no seed reaches falls off
   the tree.  The one settle loop: creation seeds the source with every
   node marked, a repair seeds each orphan through its boundary edges. *)
let settle t count =
  let stamp = t.stamp in
  while not (Int_heap.is_empty t.heap) do
    let d = Int_heap.top_prio t.heap in
    let x = Int_heap.top t.heap in
    Int_heap.drop t.heap;
    if t.settled.(x) <> stamp && d <= t.cand_d.(x) then begin
      t.settled.(x) <- stamp;
      t.dist.(x) <- t.cand_d.(x);
      t.parent.(x) <- t.cand_p.(x);
      t.parent_edge.(x) <- t.cand_e.(x);
      if t.parent.(x) >= 0 then link t t.parent.(x) x;
      let stop = t.offsets.(x + 1) in
      for i = t.offsets.(x) to stop - 1 do
        let y = t.nbr.(i) in
        let eid = t.eids.(i) in
        if
          (not t.edge_dead.(eid))
          && (not t.node_dead.(y))
          && t.mark.(y) = stamp
          && t.settled.(y) <> stamp
        then begin
          let d' = t.dist.(x) +. t.delay.(eid) in
          if t.cand_stamp.(y) <> stamp || d' < t.cand_d.(y) then seed t y d' x eid
        end
      done
    end
  done;
  for qi = 0 to count - 1 do
    let x = t.queue.(qi) in
    if t.settled.(x) <> stamp then t.dist.(x) <- infinity
  done

let create g ~source =
  let n = Graph.node_count g in
  if source < 0 || source >= n then invalid_arg "Dspf.create: source out of range";
  let offsets, nbr, eids, _ = Graph.csr g in
  let m = Graph.edge_count g in
  let t =
    {
      g;
      src = source;
      n;
      offsets;
      nbr;
      eids;
      delay = Array.init m (fun i -> (Graph.edge g i).Graph.delay);
      edge_dead = Array.make m false;
      node_dead = Array.make n false;
      dist = Array.make n infinity;
      parent = Array.make n (-1);
      parent_edge = Array.make n (-1);
      first_child = Array.make n (-1);
      next_sib = Array.make n (-1);
      prev_sib = Array.make n (-1);
      heap = Int_heap.create ~capacity:(max 16 n) ();
      mark = Array.make n 0;
      settled = Array.make n 0;
      cand_d = Array.make n infinity;
      cand_p = Array.make n (-1);
      cand_e = Array.make n (-1);
      cand_stamp = Array.make n 0;
      queue = Array.make (max 1 n) 0;
      stamp = 0;
      ops = 0;
      touched = 0;
    }
  in
  (* Creation is a repair of the whole graph from the source: every node
     is orphaned and the source is the one seed. *)
  t.stamp <- 1;
  for v = 0 to n - 1 do
    t.mark.(v) <- 1;
    t.queue.(v) <- v
  done;
  seed t source 0.0 (-1) (-1);
  settle t n;
  t

(* -- Queries ------------------------------------------------------------- *)

let check_node t v name =
  if v < 0 || v >= t.n then invalid_arg (Printf.sprintf "Dspf.%s: node %d out of range" name v)

let check_edge t eid name =
  if eid < 0 || eid >= Array.length t.delay then
    invalid_arg (Printf.sprintf "Dspf.%s: bad edge id %d" name eid)

let distances t = t.dist

let reachable t v =
  check_node t v "reachable";
  t.dist.(v) < infinity

let parent t v =
  check_node t v "parent";
  t.parent.(v)

let parent_edge t v =
  check_node t v "parent_edge";
  t.parent_edge.(v)

(* -- Shrink phase: affected-subtree repair ------------------------------- *)

(* Re-settle the orphaned set [queue.(0 .. count-1)] (already marked with
   the current stamp, parent/child pointers cleared).  Distances of nodes
   outside the set are still valid by the subtree property, so the best
   candidate of each orphan through a boundary edge is a correct seed. *)
let resettle t count =
  let stamp = t.stamp in
  Int_heap.clear t.heap;
  for qi = 0 to count - 1 do
    let x = t.queue.(qi) in
    let best = ref infinity and best_p = ref (-1) and best_e = ref (-1) in
    let stop = t.offsets.(x + 1) in
    for i = t.offsets.(x) to stop - 1 do
      let y = t.nbr.(i) in
      let eid = t.eids.(i) in
      if
        (not t.edge_dead.(eid))
        && (not t.node_dead.(y))
        && t.mark.(y) <> stamp
        && t.dist.(y) < infinity
      then begin
        let d = t.dist.(y) +. t.delay.(eid) in
        if d < !best then begin
          best := d;
          best_p := y;
          best_e := eid
        end
      end
    done;
    if !best < infinity then seed t x !best !best_p !best_e
  done;
  settle t count

(* Orphan the subtrees rooted at [roots] and repair them.  Each root is
   unlinked from its (dead or surviving) parent; the whole affected set has
   its tree pointers cleared before reseeding so stale structure can never
   leak into the rebuilt region. *)
let repair_subtrees t roots =
  t.stamp <- t.stamp + 1;
  let stamp = t.stamp in
  let count = ref 0 in
  List.iter
    (fun r ->
      t.mark.(r) <- stamp;
      t.queue.(!count) <- r;
      incr count)
    roots;
  let qi = ref 0 in
  while !qi < !count do
    let x = t.queue.(!qi) in
    incr qi;
    let c = ref t.first_child.(x) in
    while !c >= 0 do
      t.mark.(!c) <- stamp;
      t.queue.(!count) <- !c;
      incr count;
      c := t.next_sib.(!c)
    done
  done;
  List.iter (fun r -> unlink t r) roots;
  for i = 0 to !count - 1 do
    let x = t.queue.(i) in
    t.parent.(x) <- -1;
    t.parent_edge.(x) <- -1;
    t.first_child.(x) <- -1;
    t.next_sib.(x) <- -1;
    t.prev_sib.(x) <- -1
  done;
  t.touched <- t.touched + !count;
  resettle t !count

(* -- Grow phase: decrease cascade ---------------------------------------- *)

(* Propagate strict improvements from pre-seeded candidates.  Because every
   edge delay is positive and pops come in nondecreasing order, the first
   settle of a node is final within the cascade. *)
let grow t =
  let stamp = t.stamp in
  while not (Int_heap.is_empty t.heap) do
    let d = Int_heap.top_prio t.heap in
    let x = Int_heap.top t.heap in
    Int_heap.drop t.heap;
    if t.cand_stamp.(x) = stamp && d <= t.cand_d.(x) && t.cand_d.(x) < t.dist.(x) then begin
      unlink t x;
      t.dist.(x) <- t.cand_d.(x);
      t.parent.(x) <- t.cand_p.(x);
      t.parent_edge.(x) <- t.cand_e.(x);
      if t.parent.(x) >= 0 then link t t.parent.(x) x;
      t.touched <- t.touched + 1;
      let stop = t.offsets.(x + 1) in
      for i = t.offsets.(x) to stop - 1 do
        let y = t.nbr.(i) in
        let eid = t.eids.(i) in
        if (not t.edge_dead.(eid)) && not t.node_dead.(y) then begin
          let d' = t.dist.(x) +. t.delay.(eid) in
          if d' < t.dist.(y) && (t.cand_stamp.(y) <> stamp || d' < t.cand_d.(y)) then begin
            t.cand_d.(y) <- d';
            t.cand_p.(y) <- x;
            t.cand_e.(y) <- eid;
            t.cand_stamp.(y) <- stamp;
            Int_heap.add t.heap d' y
          end
        end
      done
    end
  done

let grow_through_edge t eid =
  let e = Graph.edge t.g eid in
  let u = e.Graph.u and v = e.Graph.v in
  if (not t.node_dead.(u)) && not t.node_dead.(v) then begin
    t.stamp <- t.stamp + 1;
    Int_heap.clear t.heap;
    let w = t.delay.(eid) in
    if t.dist.(u) +. w < t.dist.(v) then seed t v (t.dist.(u) +. w) u eid;
    if t.dist.(v) +. w < t.dist.(u) then seed t u (t.dist.(v) +. w) v eid;
    grow t
  end

(* -- Mutations ----------------------------------------------------------- *)

let fail_edge t eid =
  check_edge t eid "fail_edge";
  if not t.edge_dead.(eid) then begin
    t.ops <- t.ops + 1;
    t.edge_dead.(eid) <- true;
    let e = Graph.edge t.g eid in
    let child =
      if t.parent_edge.(e.Graph.u) = eid then e.Graph.u
      else if t.parent_edge.(e.Graph.v) = eid then e.Graph.v
      else -1
    in
    (* A non-tree edge carries no shortest path: distances stand. *)
    if child >= 0 then repair_subtrees t [ child ]
  end

let restore_edge t eid =
  check_edge t eid "restore_edge";
  if t.edge_dead.(eid) then begin
    t.ops <- t.ops + 1;
    t.edge_dead.(eid) <- false;
    grow_through_edge t eid
  end

let fail_node t v =
  check_node t v "fail_node";
  if not t.node_dead.(v) then begin
    t.ops <- t.ops + 1;
    t.node_dead.(v) <- true;
    if t.dist.(v) < infinity then begin
      let roots = ref [] in
      let c = ref t.first_child.(v) in
      while !c >= 0 do
        roots := !c :: !roots;
        c := t.next_sib.(!c)
      done;
      unlink t v;
      t.parent.(v) <- -1;
      t.parent_edge.(v) <- -1;
      t.dist.(v) <- infinity;
      t.touched <- t.touched + 1;
      (* The dead node's child list drains as each subtree is unlinked. *)
      repair_subtrees t !roots
    end
  end

(* -- Self-check ---------------------------------------------------------- *)

(* Compare the maintained state against the oracle search,
   {!Dijkstra.run_reference}, over the same overlay.  Distances must be
   bit-identical; parents must certify their node's distance over a live
   edge.  Test/debug only: the oracle allocates its own arrays, so the live
   workspace stays untouched. *)
let verify t =
  let dist =
    if t.node_dead.(t.src) then Array.make t.n infinity
    else
      Dijkstra.distances
        (Dijkstra.run_reference
           ~node_ok:(fun v -> not t.node_dead.(v))
           ~edge_ok:(fun eid -> not t.edge_dead.(eid))
           t.g ~source:t.src)
  in
  let ok = ref true in
  for v = 0 to t.n - 1 do
    if t.dist.(v) <> dist.(v) then ok := false
    else if t.dist.(v) < infinity && v <> t.src then begin
      let p = t.parent.(v) and eid = t.parent_edge.(v) in
      if p < 0 || eid < 0 then ok := false
      else if t.edge_dead.(eid) || t.node_dead.(p) || t.node_dead.(v) then ok := false
      else begin
        let e = Graph.edge t.g eid in
        if not ((e.Graph.u = p && e.Graph.v = v) || (e.Graph.v = p && e.Graph.u = v)) then
          ok := false
        else if t.dist.(p) +. t.delay.(eid) <> t.dist.(v) then ok := false
      end
    end
  done;
  !ok
