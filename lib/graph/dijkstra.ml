(* Two implementations share one result interface:

   - [run] is the production path: it borrows a reusable {!workspace} so a
     settled search allocates nothing but the result record.  Visited/settled
     state is epoch-stamped — bumping one counter invalidates the whole
     previous run, so there is no O(n) clearing between runs either.
   - [run_reference] is the seed implementation (boxed adjacency lists,
     generic polymorphic heap, fresh arrays per call), retained as the
     differential-testing oracle for the workspace path. *)

type workspace = {
  mutable dist : float array;
  mutable parent : int array;
  mutable parent_edge : int array;
  mutable visited : int array; (* epoch stamp: dist/parent valid this run *)
  mutable settled : int array; (* epoch stamp: node popped and relaxed *)
  mutable order : int array; (* the last run's settled nodes, in settle order *)
  mutable order_len : int; (* entries of [order] the last run wrote; -1 for [run_reference] *)
  mutable epoch : int;
  heap : Int_heap.t;
  mutable flight : Smrp_obs.Flight.recorder;
}

let workspace ?(capacity = 0) () =
  let capacity = max 0 capacity in
  {
    dist = Array.make capacity infinity;
    parent = Array.make capacity (-1);
    parent_edge = Array.make capacity (-1);
    visited = Array.make capacity 0;
    settled = Array.make capacity 0;
    order = Array.make capacity 0;
    order_len = -1;
    epoch = 0;
    heap = Int_heap.create ~capacity:(max 16 capacity) ();
    flight = Smrp_obs.Flight.null;
  }

(* A workspace doubles as the carrier for span records: it is
   domain-private by contract, so recording through it is exactly as
   domain-safe as the search itself.  With the default null recorder the
   cost per run is one [enabled] branch. *)
let set_flight ws r = ws.flight <- r

let workspace_flight ws = ws.flight

(* Grow the arrays without clearing: stamps of fresh cells are 0, below any
   live epoch, so they read as untouched. *)
let reserve ws n =
  if Array.length ws.dist < n then begin
    let grow_f a = Array.append a (Array.make (n - Array.length a) infinity) in
    let grow_i fill a = Array.append a (Array.make (n - Array.length a) fill) in
    ws.dist <- grow_f ws.dist;
    ws.parent <- grow_i (-1) ws.parent;
    ws.parent_edge <- grow_i (-1) ws.parent_edge;
    ws.visited <- grow_i 0 ws.visited;
    ws.settled <- grow_i 0 ws.settled;
    ws.order <- grow_i 0 ws.order
  end

type result = {
  graph : Graph.t;
  src : int;
  ws : workspace;
  epoch : int; (* the workspace epoch this result belongs to *)
}

let always _ = true

let never _ = false

let check_fresh r =
  if r.epoch <> r.ws.epoch then
    invalid_arg "Dijkstra: result invalidated by a later run on the same workspace"

(* Relative slack on a bounded run's pruning test: the lower bounds and the
   distances are float sums along different paths, so a node inside the
   bound may compute a few ulps outside it. *)
let prune_slack = 1e-9

let run ?node_ok ?edge_ok ?absorb ?bound ?workspace:ws g ~source =
  let n = Graph.node_count g in
  if source < 0 || source >= n then invalid_arg "Dijkstra.run: source out of range";
  (match node_ok with
  | Some ok when not (ok source) -> invalid_arg "Dijkstra.run: source is filtered out"
  | _ -> ());
  (match bound with
  | Some (_, lower) when Array.length lower < n ->
      invalid_arg "Dijkstra.run: bound array shorter than the graph"
  | _ -> ());
  let offsets, nbr, eids, delays = Graph.csr g in
  let ws = match ws with Some ws -> ws | None -> workspace ~capacity:n () in
  let start = Smrp_obs.Flight.span_start ws.flight in
  reserve ws n;
  ws.epoch <- ws.epoch + 1;
  let epoch = ws.epoch in
  let dist = ws.dist
  and parent = ws.parent
  and parent_edge = ws.parent_edge
  and visited = ws.visited
  and settled = ws.settled
  and heap = ws.heap in
  Int_heap.clear heap;
  dist.(source) <- 0.0;
  parent.(source) <- -1;
  parent_edge.(source) <- -1;
  visited.(source) <- epoch;
  Int_heap.add heap 0.0 source;
  (* The goal-directed search.  A push whose distance plus [lower] leaves
     the bound is dropped; by the triangle inequality on [lower] every node
     on a shortest path to an in-bound node, and every tight predecessor,
     passes the test, so the kept entries keep their relative (distance,
     insertion) order and the in-bound nodes settle exactly as without the
     test.  Without [bound] the limit is infinite: delays are positive and
     finite, so every sum passes [<= infinity] whatever [lower] holds, and
     [dist] itself serves. *)
  let limit, lower =
    match bound with
    | Some (limit, lower) -> (limit +. (prune_slack *. (1.0 +. abs_float limit)), lower)
    | None -> (infinity, dist)
  in
  let order = ws.order in
  let settled_n = ref 0 in
  let absorb = match absorb with Some f -> f | None -> never in
  (* Offer [v] the distance through CSR slot [i] of the settled [u]: update
     and inlined sift, behind the bound test.  Indices are in range by CSR
     construction ([reserve] sized the workspace to [n], CSR entries point
     at nodes/edges of [g]).  [u]'s distance is read back from [dist] and
     the insertion sift is inlined, so only ints cross the call — without
     flambda a float crossing it would box. *)
  let reach u i v =
    let d' = Array.unsafe_get dist u +. Array.unsafe_get delays i in
    if
      (Array.unsafe_get visited v <> epoch || d' < Array.unsafe_get dist v)
      && d' +. Array.unsafe_get lower v <= limit
    then begin
      Array.unsafe_set dist v d';
      Array.unsafe_set parent v u;
      Array.unsafe_set parent_edge v (Array.unsafe_get eids i);
      Array.unsafe_set visited v epoch;
      Int_heap.grow heap;
      let pa = heap.Int_heap.prio
      and sa = heap.Int_heap.seq
      and va = heap.Int_heap.value in
      let seq = heap.Int_heap.next_seq in
      heap.Int_heap.next_seq <- seq + 1;
      let j = ref heap.Int_heap.size in
      heap.Int_heap.size <- !j + 1;
      let continue = ref (!j > 0) in
      while !continue do
        let p = (!j - 1) / 2 in
        let pp = Array.unsafe_get pa p in
        if d' < pp || (d' = pp && seq < Array.unsafe_get sa p) then begin
          Array.unsafe_set pa !j pp;
          Array.unsafe_set sa !j (Array.unsafe_get sa p);
          Array.unsafe_set va !j (Array.unsafe_get va p);
          j := p;
          continue := p > 0
        end
        else continue := false
      done;
      Array.unsafe_set pa !j d';
      Array.unsafe_set sa !j seq;
      Array.unsafe_set va !j v
    end
  in
  (* Each loop below pops, records and settles; they differ only in the
     filters a relaxation asks.  An absorbing node terminates the search
     along its branch: it can be a shortest-path target but contributes no
     further relaxation. *)
  (match (node_ok, edge_ok) with
  | None, None ->
      (* SMRP join searches and source SPFs with no failure active. *)
      while not (Int_heap.is_empty heap) do
        let u = Int_heap.top heap in
        Int_heap.drop heap;
        if Array.unsafe_get settled u <> epoch then begin
          Array.unsafe_set settled u epoch;
          Array.unsafe_set order !settled_n u;
          incr settled_n;
          if u = source || not (absorb u) then
            for i = Array.unsafe_get offsets u to Array.unsafe_get offsets (u + 1) - 1 do
              let v = Array.unsafe_get nbr i in
              if Array.unsafe_get settled v <> epoch then reach u i v
            done
        end
      done
  | Some node_ok, None ->
      (* Reshape evaluations with no failure active. *)
      while not (Int_heap.is_empty heap) do
        let u = Int_heap.top heap in
        Int_heap.drop heap;
        if Array.unsafe_get settled u <> epoch then begin
          Array.unsafe_set settled u epoch;
          Array.unsafe_set order !settled_n u;
          incr settled_n;
          if u = source || not (absorb u) then
            for i = Array.unsafe_get offsets u to Array.unsafe_get offsets (u + 1) - 1 do
              let v = Array.unsafe_get nbr i in
              if Array.unsafe_get settled v <> epoch && node_ok v then reach u i v
            done
        end
      done
  | _ ->
      let node_ok = match node_ok with Some f -> f | None -> always in
      let edge_ok = match edge_ok with Some f -> f | None -> always in
      while not (Int_heap.is_empty heap) do
        let u = Int_heap.top heap in
        Int_heap.drop heap;
        if Array.unsafe_get settled u <> epoch then begin
          Array.unsafe_set settled u epoch;
          Array.unsafe_set order !settled_n u;
          incr settled_n;
          if u = source || not (absorb u) then
            for i = Array.unsafe_get offsets u to Array.unsafe_get offsets (u + 1) - 1 do
              let v = Array.unsafe_get nbr i in
              if
                Array.unsafe_get settled v <> epoch
                && node_ok v
                && edge_ok (Array.unsafe_get eids i)
              then reach u i v
            done
        end
      done);
  ws.order_len <- !settled_n;
  Smrp_obs.Flight.span ws.flight ~code:Smrp_obs.Flight.span_dijkstra ~start
    ~b:(Smrp_obs.Flight.pack source n);
  { graph = g; src = source; ws; epoch }

(* The pre-CSR list-and-boxed-heap implementation, verbatim apart from
   repackaging its arrays as a single-use workspace. *)
let run_reference ?(node_ok = always) ?(edge_ok = always) ?(absorb = never) g ~source =
  let n = Graph.node_count g in
  if source < 0 || source >= n then invalid_arg "Dijkstra.run_reference: source out of range";
  if not (node_ok source) then invalid_arg "Dijkstra.run_reference: source is filtered out";
  let dist = Array.make n infinity in
  let parent = Array.make n (-1) in
  let parent_edge = Array.make n (-1) in
  let settled = Array.make n false in
  let heap = Heap.create () in
  dist.(source) <- 0.0;
  Heap.add heap 0.0 source;
  let rec loop () =
    match Heap.pop_min heap with
    | None -> ()
    | Some (d, u) ->
        if not settled.(u) then begin
          settled.(u) <- true;
          if u = source || not (absorb u) then
            let relax (v, eid) =
              if node_ok v && edge_ok eid && not settled.(v) then begin
                let e = Graph.edge g eid in
                let d' = d +. e.Graph.delay in
                if d' < dist.(v) then begin
                  dist.(v) <- d';
                  parent.(v) <- u;
                  parent_edge.(v) <- eid;
                  Heap.add heap d' v
                end
              end
            in
            List.iter relax (Graph.neighbors g u)
        end;
        loop ()
  in
  loop ();
  let visited = Array.map (fun d -> if d = infinity then 0 else 1) dist in
  let ws =
    {
      dist;
      parent;
      parent_edge;
      visited;
      settled = Array.map (fun s -> if s then 1 else 0) settled;
      order = [||];
      order_len = -1;
      epoch = 1;
      heap = Int_heap.create ~capacity:1 ();
      flight = Smrp_obs.Flight.null;
    }
  in
  { graph = g; src = source; ws; epoch = 1 }

let distance r v =
  check_fresh r;
  if r.ws.visited.(v) <> r.epoch then None else Some r.ws.dist.(v)

let reachable r v =
  check_fresh r;
  r.ws.visited.(v) = r.epoch

let settled_by_id keep r =
  check_fresh r;
  let ws = r.ws in
  if ws.order_len < 0 then invalid_arg "Dijkstra.settled_by_id: a run_reference result";
  let found = ref [] in
  for i = 0 to ws.order_len - 1 do
    let v = Array.unsafe_get ws.order i in
    if keep v then found := v :: !found
  done;
  let ids = Array.of_list !found in
  Array.sort (fun (a : int) b -> compare a b) ids;
  ids

let distances r =
  check_fresh r;
  let ws = r.ws in
  let d = Array.make (Graph.node_count r.graph) infinity in
  for v = 0 to Array.length d - 1 do
    if ws.visited.(v) = r.epoch then d.(v) <- ws.dist.(v)
  done;
  d

let unsafe_distance r v = Array.unsafe_get r.ws.dist v

let path_rev r v =
  check_fresh r;
  if r.ws.visited.(v) <> r.epoch then None
  else begin
    let parent = r.ws.parent and parent_edge = r.ws.parent_edge in
    let rec walk v nodes edges =
      if v = r.src then (v :: nodes, edges)
      else walk parent.(v) (v :: nodes) (parent_edge.(v) :: edges)
    in
    Some (walk v [] [])
  end

let path_nodes r v = Option.map fst (path_rev r v)

let path_edges r v = Option.map snd (path_rev r v)

type nearest = { target : int; dist : float; nodes : int list; edges : int list }

(* The absorbing search of [run] with [absorb = target], cut short: it
   performs exactly [run]'s pops and relaxations in the same order, so every
   node it settles has [run]'s distance and parent chain.  Targets pop in
   nondecreasing distance, so the first one fixes the minimum; the search
   keeps popping until the heap minimum exceeds it, which settles every
   other target at that distance, and keeps the smallest id among them.
   That is the answer a full [run] and a descending scan over all targets
   would give, at the cost of the ball around the source. *)
let nearest ?(node_ok = always) ?(edge_ok = always) ?workspace:ws g ~source ~target =
  let n = Graph.node_count g in
  if source < 0 || source >= n then invalid_arg "Dijkstra.nearest: source out of range";
  if not (node_ok source) then invalid_arg "Dijkstra.nearest: source is filtered out";
  let offsets, nbr, eids, delays = Graph.csr g in
  let ws = match ws with Some ws -> ws | None -> workspace ~capacity:n () in
  let start = Smrp_obs.Flight.span_start ws.flight in
  reserve ws n;
  ws.epoch <- ws.epoch + 1;
  let epoch = ws.epoch in
  let dist = ws.dist
  and parent = ws.parent
  and parent_edge = ws.parent_edge
  and visited = ws.visited
  and settled = ws.settled
  and heap = ws.heap in
  Int_heap.clear heap;
  dist.(source) <- 0.0;
  parent.(source) <- -1;
  parent_edge.(source) <- -1;
  visited.(source) <- epoch;
  Int_heap.add heap 0.0 source;
  let best = ref (-1) in
  while not (Int_heap.is_empty heap) do
    let u = Int_heap.top heap in
    Int_heap.drop heap;
    if settled.(u) <> epoch then begin
      if !best >= 0 && dist.(u) > dist.(!best) then Int_heap.clear heap
      else begin
        settled.(u) <- epoch;
        if u <> source && target u then begin
          if !best < 0 || u < !best then best := u
        end
        else begin
          let d = dist.(u) in
          for i = offsets.(u) to offsets.(u + 1) - 1 do
            let v = nbr.(i) in
            if settled.(v) <> epoch && node_ok v && edge_ok eids.(i) then begin
              let d' = d +. delays.(i) in
              if visited.(v) <> epoch || d' < dist.(v) then begin
                dist.(v) <- d';
                parent.(v) <- u;
                parent_edge.(v) <- eids.(i);
                visited.(v) <- epoch;
                Int_heap.add heap d' v
              end
            end
          done
        end
      end
    end
  done;
  Smrp_obs.Flight.span ws.flight ~code:Smrp_obs.Flight.span_dijkstra ~start
    ~b:(Smrp_obs.Flight.pack source n);
  if !best < 0 then None
  else begin
    let nodes, edges = Option.get (path_rev { graph = g; src = source; ws; epoch } !best) in
    Some { target = !best; dist = dist.(!best); nodes; edges }
  end

(* The goal-directed search with the limit at [src]'s own distance: only
   nodes on a shortest [src]→[dst] path are in bound, [dst] among them, and
   each settles with [run]'s distance and parent, so the path read back from
   [dst] is [run]'s.  A [lower.(src)] of [infinity] means [dst] is out of
   reach in the searched graph. *)
let shortest_path ?node_ok ?edge_ok ?workspace g ~src ~dst ~lower =
  let n = Graph.node_count g in
  if src < 0 || src >= n then invalid_arg "Dijkstra.shortest_path: source out of range";
  if dst < 0 || dst >= n then invalid_arg "Dijkstra.shortest_path: target out of range";
  if Array.length lower < n then invalid_arg "Dijkstra.shortest_path: lower shorter than the graph";
  (match node_ok with
  | Some ok when not (ok src) -> invalid_arg "Dijkstra.shortest_path: source is filtered out"
  | _ -> ());
  if lower.(src) = infinity then None
  else begin
    let r = run ?node_ok ?edge_ok ~bound:(lower.(src), lower) ?workspace g ~source:src in
    Option.map (fun (nodes, edges) -> (r.ws.dist.(dst), nodes, edges)) (path_rev r dst)
  end
