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
    ws.settled <- grow_i 0 ws.settled
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

let run ?node_ok ?edge_ok ?absorb ?dist_bound ?workspace:ws g ~source =
  let dist_bound = match dist_bound with Some b -> b | None -> infinity in
  let n = Graph.node_count g in
  if source < 0 || source >= n then invalid_arg "Dijkstra.run: source out of range";
  (match node_ok with
  | Some ok when not (ok source) -> invalid_arg "Dijkstra.run: source is filtered out"
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
  (* Relax every incident edge of the settled node [u].  Indices are in
     range by CSR construction ([reserve] sized the workspace to [n], CSR
     entries point at nodes/edges of [g]).  [u]'s distance is read back
     from [dist] (equal to the minimal heap entry's priority for an
     unsettled node) and the insertion sift is inlined, so no float crosses
     a call boundary — without flambda each such crossing would box.  The
     function itself takes only an int, so the specialised search loops
     below share it without allocation. *)
  let relax u =
    let d = Array.unsafe_get dist u in
    let stop = Array.unsafe_get offsets (u + 1) in
    for i = Array.unsafe_get offsets u to stop - 1 do
      let v = Array.unsafe_get nbr i in
      if Array.unsafe_get settled v <> epoch then begin
        let d' = d +. Array.unsafe_get delays i in
        if Array.unsafe_get visited v <> epoch || d' < Array.unsafe_get dist v then begin
          Array.unsafe_set dist v d';
          Array.unsafe_set parent v u;
          Array.unsafe_set parent_edge v (Array.unsafe_get eids i);
          Array.unsafe_set visited v epoch;
          (* Inlined Int_heap.add: hole-based sift-up of (d', v). *)
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
      end
    done
  in
  (match (node_ok, edge_ok, absorb) with
  | None, None, None ->
      (* Unfiltered fast path: no closure calls per edge. *)
      while not (Int_heap.is_empty heap) do
        let u = Int_heap.top heap in
        Int_heap.drop heap;
        if Array.unsafe_get settled u <> epoch then begin
          (* Pops come in nondecreasing distance order: once one exceeds
             [dist_bound], no unsettled node can be within it. *)
          if Array.unsafe_get dist u > dist_bound then Int_heap.clear heap
          else begin
            Array.unsafe_set settled u epoch;
            relax u
          end
        end
      done
  | None, None, Some absorb ->
      (* Absorb-only path (SMRP candidate searches): one absorb check per
         settled node, still no per-edge filter calls. *)
      while not (Int_heap.is_empty heap) do
        let u = Int_heap.top heap in
        Int_heap.drop heap;
        if Array.unsafe_get settled u <> epoch then begin
          if Array.unsafe_get dist u > dist_bound then Int_heap.clear heap
          else begin
            Array.unsafe_set settled u epoch;
            if u = source || not (absorb u) then relax u
          end
        end
      done
  | Some node_ok, None, Some absorb ->
      (* Node-filtered absorbing search with no edge filter — the reshape
         candidate evaluation.  One [node_ok] call per edge target; heap
         pushes stay inlined as in [relax] so no float is boxed. *)
      let relax_ok u =
        let d = Array.unsafe_get dist u in
        let stop = Array.unsafe_get offsets (u + 1) in
        for i = Array.unsafe_get offsets u to stop - 1 do
          let v = Array.unsafe_get nbr i in
          if Array.unsafe_get settled v <> epoch && node_ok v then begin
            let d' = d +. Array.unsafe_get delays i in
            if Array.unsafe_get visited v <> epoch || d' < Array.unsafe_get dist v then begin
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
          end
        done
      in
      while not (Int_heap.is_empty heap) do
        let u = Int_heap.top heap in
        Int_heap.drop heap;
        if Array.unsafe_get settled u <> epoch then begin
          if Array.unsafe_get dist u > dist_bound then Int_heap.clear heap
          else begin
            Array.unsafe_set settled u epoch;
            if u = source || not (absorb u) then relax_ok u
          end
        end
      done
  | _ ->
      let node_ok = match node_ok with Some f -> f | None -> always in
      let edge_ok = match edge_ok with Some f -> f | None -> always in
      let absorb = match absorb with Some f -> f | None -> never in
      while not (Int_heap.is_empty heap) do
        let u = Int_heap.top heap in
        Int_heap.drop heap;
        if settled.(u) <> epoch && dist.(u) > dist_bound then Int_heap.clear heap
        else if settled.(u) <> epoch then begin
          settled.(u) <- epoch;
          (* An absorbing node terminates the search along its branch: it
             can be a shortest-path target but contributes no further
             relaxation. *)
          if u = source || not (absorb u) then begin
            let d = dist.(u) in
            let stop = offsets.(u + 1) in
            for i = offsets.(u) to stop - 1 do
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
      done);
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
      epoch = 1;
      heap = Int_heap.create ~capacity:1 ();
      flight = Smrp_obs.Flight.null;
    }
  in
  { graph = g; src = source; ws; epoch = 1 }

let source r = r.src

let distance r v =
  check_fresh r;
  if r.ws.visited.(v) <> r.epoch then None else Some r.ws.dist.(v)

let reachable r v =
  check_fresh r;
  r.ws.visited.(v) = r.epoch

let unsafe_distance r v = Array.unsafe_get r.ws.dist v

let parent r v =
  check_fresh r;
  if r.ws.visited.(v) <> r.epoch || r.ws.parent.(v) < 0 then None else Some r.ws.parent.(v)

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

let shortest_path ?node_ok ?edge_ok ?workspace g ~src ~dst =
  let r = run ?node_ok ?edge_ok ?workspace g ~source:src in
  match path_rev r dst with
  | None -> None
  | Some (nodes, edges) -> Some (r.ws.dist.(dst), nodes, edges)
