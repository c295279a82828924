module Rng = Smrp_rng.Rng
module Graph = Smrp_graph.Graph
module Dspf = Smrp_graph.Dspf
module Tree = Smrp_core.Tree
module Failure = Smrp_core.Failure

type model =
  | Independent of { events : int; elements : int }
  | Correlated of { events : int; burst : int }
  | Regional of { events : int; radius : int }
  | Cascading of { events : int; depth : int }
  | Adversarial of { events : int; budget : int; passes : int }

let events = function
  | Independent { events; _ }
  | Correlated { events; _ }
  | Regional { events; _ }
  | Cascading { events; _ }
  | Adversarial { events; _ } -> events

(* One incremental-SPF structure per (graph, source) for cascade rounds,
   failures applied and rolled back around each draw.  The cache key is
   physical: campaign cells build a fresh graph per instance, so the reuse
   this buys is exactly the within-instance one: every cascade draw of an
   instance shares one structure instead of rebuilding it. *)
type ws = { mutable cached : (Graph.t * int * Dspf.t) option }

let create_ws () = { cached = None }

let dspf ws g ~source =
  match ws.cached with
  | Some (g', s', d) when g' == g && s' = source -> d
  | _ ->
      let d = Dspf.create g ~source in
      ws.cached <- Some (g, source, d);
      d

let disrupted tree f =
  let connected = Failure.tree_connected tree f in
  List.fold_left (fun acc m -> if connected.(m) then acc else acc + 1) 0 (Tree.members tree)

(* -- Independent -------------------------------------------------------- *)

let random_non_source rng ~n ~source =
  if n < 2 then None
  else begin
    let v = Rng.int rng (n - 1) in
    Some (if v >= source then v + 1 else v)
  end

let independent rng g ~source ~elements =
  let ecount = Graph.edge_count g and n = Graph.node_count g in
  let parts =
    List.filter_map
      (fun _ ->
        if ecount > 0 && Rng.int rng 3 < 2 then Some (Failure.Link (Rng.int rng ecount))
        else
          Option.map (fun v -> Failure.Node v) (random_non_source rng ~n ~source))
      (List.init (max 1 elements) Fun.id)
  in
  match parts with [] -> None | _ -> Some (Failure.compose parts)

(* -- Correlated (shared-risk link group) -------------------------------- *)

let correlated rng g ~burst =
  let ecount = Graph.edge_count g in
  if ecount = 0 then None
  else begin
    let seed = Rng.int rng ecount in
    let chosen = Hashtbl.create 8 in
    Hashtbl.replace chosen seed ();
    (* Breadth-first over edge adjacency in CSR order: deterministic in the
       seed edge. *)
    let frontier = Queue.create () in
    Queue.push seed frontier;
    while Hashtbl.length chosen < burst && not (Queue.is_empty frontier) do
      let e = Queue.pop frontier in
      let edge = Graph.edge g e in
      List.iter
        (fun u ->
          Graph.iter_neighbors g u (fun _ eid _ ->
              if Hashtbl.length chosen < burst && not (Hashtbl.mem chosen eid) then begin
                Hashtbl.replace chosen eid ();
                Queue.push eid frontier
              end))
        [ edge.Graph.u; edge.Graph.v ]
    done;
    let links = List.sort compare (Hashtbl.fold (fun e () acc -> e :: acc) chosen []) in
    Some (Failure.compose (List.map (fun e -> Failure.Link e) links))
  end

(* -- Regional (hop-radius ball) ----------------------------------------- *)

let regional rng g ~source ~radius =
  let n = Graph.node_count g in
  match random_non_source rng ~n ~source with
  | None -> None
  | Some center ->
      let dist = Array.make n (-1) in
      dist.(center) <- 0;
      let q = Queue.create () in
      Queue.push center q;
      let ball = ref [] in
      while not (Queue.is_empty q) do
        let u = Queue.pop q in
        if u <> source then ball := u :: !ball;
        if dist.(u) < radius then
          Graph.iter_neighbors g u (fun v _ _ ->
              if dist.(v) < 0 then begin
                dist.(v) <- dist.(u) + 1;
                Queue.push v q
              end)
      done;
      let nodes = List.sort compare !ball in
      Some (Failure.compose (List.map (fun v -> Failure.Node v) nodes))

(* -- Cascading (backup-path overload) ----------------------------------- *)

(* A tree link fails; the orphaned child re-routes over the incremental-SPF
   detour; the link now carrying that subtree's traffic fails in the next
   round.  One Dspf, overlays rolled back at the end. *)
let cascading ws rng g ~tree ~depth =
  match Tree.tree_edges tree with
  | [] -> None
  | edges ->
      let edges = List.sort compare edges in
      let e0 = List.nth edges (Rng.int rng (List.length edges)) in
      let edge = Graph.edge g e0 in
      let child =
        if Tree.parent_edge_id tree edge.Graph.u = e0 then edge.Graph.u else edge.Graph.v
      in
      let d = dspf ws g ~source:(Tree.source tree) in
      let failed = ref [ e0 ] in
      Dspf.fail_edge d e0;
      (let continue = ref true in
       let rounds = ref 0 in
       while !continue && !rounds < depth do
         incr rounds;
         let next = Dspf.parent_edge d child in
         if next < 0 || List.mem next !failed then continue := false
         else begin
           failed := next :: !failed;
           Dspf.fail_edge d next
         end
       done);
      List.iter (Dspf.restore_edge d) !failed;
      Some (Failure.compose (List.map (fun e -> Failure.Link e) (List.sort compare !failed)))

(* -- Adversarial (greedy + local-search swap) --------------------------- *)

(* Per-draw scratch for scoring candidate link sets.  Every evaluation takes
   a fresh [stamp], so no array is ever cleared. *)
type scratch = {
  low : int array; (* tree link -> its lower endpoint, the child it feeds *)
  mark : int array; (* node: lower endpoint of a link in the set *)
  dead : int array; (* edge: a link in the set *)
  seen : int array; (* node: reached by the residual-graph search *)
  queue : int array;
  mutable stamp : int;
}

(* Members cut off from the source over the tree when the tree links
   [links] fail: a member is cut off exactly when one of them lies on its
   tree path, so the count is the sum of N_R (Eq. 1) over the links with no
   other failed link above them. *)
let tree_disrupted sc tree links =
  sc.stamp <- sc.stamp + 1;
  let stamp = sc.stamp in
  List.iter (fun e -> sc.mark.(sc.low.(e)) <- stamp) links;
  let rec covered v = v >= 0 && (sc.mark.(v) = stamp || covered (Tree.parent_id tree v)) in
  List.fold_left
    (fun acc e ->
      let c = sc.low.(e) in
      if covered (Tree.parent_id tree c) then acc else acc + Tree.subtree_members tree c)
    0 links

(* Members with no path at all from the source once [links] fail: one
   breadth-first search over the CSR. *)
let isolated sc g ~source ~members links =
  sc.stamp <- sc.stamp + 1;
  let stamp = sc.stamp in
  List.iter (fun e -> sc.dead.(e) <- stamp) links;
  let offsets, nbr, eids, _ = Graph.csr g in
  sc.seen.(source) <- stamp;
  sc.queue.(0) <- source;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = sc.queue.(!head) in
    incr head;
    for i = offsets.(u) to offsets.(u + 1) - 1 do
      let v = nbr.(i) in
      if sc.dead.(eids.(i)) <> stamp && sc.seen.(v) <> stamp then begin
        sc.seen.(v) <- stamp;
        sc.queue.(!tail) <- v;
        incr tail
      end
    done
  done;
  List.fold_left (fun acc m -> if sc.seen.(m) = stamp then acc else acc + 1) 0 members

let adversarial g ~tree ~budget ~passes =
  match List.sort compare (Tree.tree_edges tree) with
  | [] -> None
  | candidates ->
      let budget = min budget (List.length candidates) in
      let n = Graph.node_count g and m = Graph.edge_count g in
      let sc =
        {
          low = Array.make m (-1);
          mark = Array.make n 0;
          dead = Array.make m 0;
          seen = Array.make n 0;
          queue = Array.make n 0;
          stamp = 0;
        }
      in
      List.iter
        (fun e ->
          let edge = Graph.edge g e in
          sc.low.(e) <-
            (if Tree.parent_edge_id tree edge.Graph.u = e then edge.Graph.u else edge.Graph.v))
        candidates;
      let disrupted_of = tree_disrupted sc tree in
      let isolated_of = isolated sc g ~source:(Tree.source tree) ~members:(Tree.members tree) in
      (* Greedy: ascending candidate scan with strict improvement keeps the
         smallest-id argmax — deterministic whatever the RNG. *)
      let chosen = ref [] in
      for _ = 1 to budget do
        let best = ref (-1) and best_d = ref (-1) in
        List.iter
          (fun e ->
            if not (List.mem e !chosen) then begin
              let d = disrupted_of (e :: !chosen) in
              if d > !best_d then begin
                best := e;
                best_d := d
              end
            end)
          candidates;
        if !best >= 0 then chosen := !chosen @ [ !best ]
      done;
      (* Local-search refinement: first-improvement swaps; ties on members
         disrupted break towards placements isolating more members, judged
         on the residual graph. *)
      let cur_d = ref (disrupted_of !chosen) in
      let cur_iso = ref (isolated_of !chosen) in
      for _ = 1 to passes do
        List.iteri
          (fun j _ ->
            List.iter
              (fun e ->
                if not (List.mem e !chosen) then begin
                  let alt = List.mapi (fun k x -> if k = j then e else x) !chosen in
                  let d = disrupted_of alt in
                  if d > !cur_d then begin
                    chosen := alt;
                    cur_d := d;
                    cur_iso := isolated_of alt
                  end
                  else if d = !cur_d then begin
                    let iso = isolated_of alt in
                    if iso > !cur_iso then begin
                      chosen := alt;
                      cur_iso := iso
                    end
                  end
                end)
              candidates)
          !chosen
      done;
      (match !chosen with
      | [] -> None
      | links ->
          Some (Failure.compose (List.map (fun e -> Failure.Link e) (List.sort compare links))))

let draw ws model rng g ~tree =
  let source = Tree.source tree in
  match model with
  | Independent { elements; _ } -> independent rng g ~source ~elements
  | Correlated { burst; _ } -> correlated rng g ~burst
  | Regional { radius; _ } -> regional rng g ~source ~radius
  | Cascading { depth; _ } -> cascading ws rng g ~tree ~depth
  | Adversarial { budget; passes; _ } -> adversarial g ~tree ~budget ~passes
