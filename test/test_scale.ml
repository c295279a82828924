(* The streaming large-n Waxman generator (Topology.Scale) and the
   session-level protection fast path.  The generator is exercised at
   reduced n — the 10^5/10^6 draws run in the CLI sweep and CI smoke — but
   through exactly the same grid-bucketed code paths: a copy of its plain
   pair loop is the oracle for the envelope reject, and two draws are pinned
   by digest.  The protection test pins the table-lookup repairs to the
   candidate search they precompute. *)

module Rng = Smrp_rng.Rng
module Graph = Smrp_graph.Graph
module Connectivity = Smrp_graph.Connectivity
module Scale = Smrp_topology.Scale
module Tree = Smrp_core.Tree
module Session = Smrp_core.Session
module Failure = Smrp_core.Failure
module Recovery = Smrp_core.Recovery

(* Property tests run with a pinned PRNG state so failures are
   reproducible run over run. *)
let qcheck_case t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 424242 |]) t

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let waxman_connected () =
  let rng = Rng.create 7 in
  let n = 5_000 in
  let alpha, beta = Scale.degree_params ~n ~target_degree:8.0 in
  let t = Scale.waxman rng ~n ~alpha ~beta in
  let g = t.Scale.graph in
  check_int "node count" n (Graph.node_count g);
  check "single component" true (Array.for_all Fun.id (Connectivity.reachable_from g 0));
  let d = Graph.average_degree g in
  check "degree near target" true (d > 5.0 && d < 11.0);
  check "truncation bound harmless" true (t.Scale.missed_edge_bound < 1.0)

let waxman_deterministic () =
  let draw () =
    let rng = Rng.create 11 in
    let alpha, beta = Scale.degree_params ~n:2_000 ~target_degree:6.0 in
    (Scale.waxman rng ~n:2_000 ~alpha ~beta).Scale.graph
  in
  let a = draw () and b = draw () in
  check_int "same edge count" (Graph.edge_count a) (Graph.edge_count b);
  for eid = 0 to min 99 (Graph.edge_count a - 1) do
    let ea = Graph.edge a eid and eb = Graph.edge b eid in
    check_int "same u" ea.Graph.u eb.Graph.u;
    check_int "same v" ea.Graph.v eb.Graph.v
  done

(* [Scale.waxman]'s pair loop as it was before the envelope reject: the
   same positions, grid, cell order and half ring, with one [sqrt] and one
   [exp] for every pair inside the cutoff.  It stops before the stitching
   pass and returns the raw edges as (u, v, delay), in insertion order. *)
module Pair_loop = struct
  let diag = sqrt 2.0

  let make_delay link_delay rng d =
    match link_delay with
    | `Euclidean -> Float.max 0.01 d
    | `Unit -> 1.0
    | `Uniform (lo, hi) -> lo +. Rng.float rng (hi -. lo)

  let raw_edges link_delay rng ~n ~alpha ~beta ~p_floor =
    let xs = Array.make n 0.0 and ys = Array.make n 0.0 in
    for i = 0 to n - 1 do
      xs.(i) <- Rng.float rng 1.0;
      ys.(i) <- Rng.float rng 1.0
    done;
    let s = beta *. diag in
    let cutoff = if p_floor >= alpha then 0.0 else Float.min diag (s *. log (alpha /. p_floor)) in
    let side =
      let by_cutoff =
        if cutoff >= 1.0 then 1 else max 1 (int_of_float (1.0 /. Float.max cutoff 1e-6))
      in
      min by_cutoff (max 1 (int_of_float (ceil (sqrt (float_of_int n)))))
    in
    let cell_of x = min (side - 1) (int_of_float (x *. float_of_int side)) in
    let cell i = (cell_of ys.(i) * side) + cell_of xs.(i) in
    let start = Array.make ((side * side) + 1) 0 in
    for i = 0 to n - 1 do
      start.(cell i + 1) <- start.(cell i + 1) + 1
    done;
    for c = 1 to side * side do
      start.(c) <- start.(c) + start.(c - 1)
    done;
    let order = Array.make n 0 and fill = Array.copy start in
    for i = 0 to n - 1 do
      order.(fill.(cell i)) <- i;
      fill.(cell i) <- fill.(cell i) + 1
    done;
    let cutoff2 = cutoff *. cutoff in
    let edges = ref [] in
    let consider u v =
      let dx = xs.(u) -. xs.(v) and dy = ys.(u) -. ys.(v) in
      let d2 = (dx *. dx) +. (dy *. dy) in
      if d2 <= cutoff2 then begin
        let d = sqrt d2 in
        if Rng.float rng 1.0 < alpha *. exp (-.d /. s) then
          edges := (u, v, make_delay link_delay rng d) :: !edges
      end
    in
    let reach = max 1 (int_of_float (ceil (cutoff *. float_of_int side))) in
    for c = 0 to (side * side) - 1 do
      let cx = c mod side and cy = c / side in
      for k1 = start.(c) to start.(c + 1) - 1 do
        for k2 = k1 + 1 to start.(c + 1) - 1 do
          consider order.(k1) order.(k2)
        done
      done;
      for dy = 0 to reach do
        for dx = (if dy = 0 then 1 else -reach) to reach do
          let gx = cx + dx and gy = cy + dy in
          if gx >= 0 && gx < side && gy < side then begin
            let c' = (gy * side) + gx in
            for k1 = start.(c) to start.(c + 1) - 1 do
              for k2 = start.(c') to start.(c' + 1) - 1 do
                consider order.(k1) order.(k2)
              done
            done
          end
        done
      done
    done;
    List.rev !edges
end

(* The envelope only skips a pair's [sqrt] and [exp]; the draw and the
   probability still decide every edge.  So the draw's first edges must be
   the pair loop's raw edges, delays to the bit, and stitching must add the
   rest from the same stream: with [`Uniform] delays it draws one delay per
   stitching edge, after which both streams must give the same next draw. *)
let qcheck_envelope_matches_pair_loop =
  QCheck.Test.make ~name:"envelope reject keeps the pair loop's edges, draw for draw" ~count:120
    (QCheck.int_bound 1_000_000) (fun seed ->
      let rng = Rng.create seed in
      let link_delay =
        match Rng.int rng 3 with
        | 0 -> `Unit
        | 1 -> `Euclidean
        | _ ->
            let lo = 0.01 +. Rng.float rng 1.0 in
            `Uniform (lo, lo +. Rng.float rng 1.0)
      in
      let default_p_floor = 1e-9 in
      let unit () = 1e-3 +. Rng.float rng (1.0 -. 1e-3) in
      (* Raw parameters keep most pairs near probability alpha, so their
         draws are nearly complete graphs: n stays below 300 there. *)
      let n, (alpha, beta), p_floor =
        match Rng.int rng 4 with
        | 0 ->
            let n = 2 + Rng.int rng 1_499 in
            (n, Scale.degree_params ~n ~target_degree:(0.5 +. Rng.float rng 20.0), default_p_floor)
        | 1 -> (2 + Rng.int rng 298, (unit (), unit ()), default_p_floor)
        | 2 ->
            (* A zero cutoff: no pair is drawn and stitching builds the
               whole graph. *)
            let alpha = unit () in
            (2 + Rng.int rng 1_499, (alpha, unit ()), alpha *. (1.0 +. Rng.float rng 1.0))
        | _ ->
            (* beta = 1 puts the cutoff past the diagonal: one cell holds
               every node. *)
            (2 + Rng.int rng 298, (unit (), 1.0), default_p_floor)
      in
      let draw_seed = Rng.int rng 1_000_000 in
      let a = Rng.create draw_seed and b = Rng.create draw_seed in
      let g = (Scale.waxman ~link_delay ~p_floor a ~n ~alpha ~beta).Scale.graph in
      let expect = Pair_loop.raw_edges link_delay b ~n ~alpha ~beta ~p_floor in
      let k = List.length expect in
      let got =
        List.init (min k (Graph.edge_count g)) (fun id ->
            let e = Graph.edge g id in
            (e.Graph.u, e.Graph.v, e.Graph.delay))
      in
      let show l = List.map (fun (u, v, d) -> Printf.sprintf "%d-%d@%h" u v d) l in
      (match link_delay with
      | `Uniform (lo, hi) ->
          for _ = k + 1 to Graph.edge_count g do
            ignore (Rng.float b (hi -. lo))
          done
      | `Unit | `Euclidean -> ());
      show got = show expect && Rng.bits64 a = Rng.bits64 b)

(* [Scale.waxman]'s draw stream at failover's shape (n = 1,000, degree 8)
   and at a size whose grid has several cells: the MD5 of every edge's
   endpoints and [%h] delay, in id order, stitching edges included. *)
let waxman_digests_pinned () =
  let digest ~n ~seed =
    let alpha, beta = Scale.degree_params ~n ~target_degree:8.0 in
    let g = (Scale.waxman (Rng.create seed) ~n ~alpha ~beta).Scale.graph in
    let b = Buffer.create (32 * Graph.edge_count g) in
    Graph.iter_edges (fun e -> Printf.bprintf b "%d %d %h;" e.Graph.u e.Graph.v e.Graph.delay) g;
    (Graph.edge_count g, Digest.to_hex (Digest.string (Buffer.contents b)))
  in
  Alcotest.(check (pair int string))
    "n = 1000, seed 1" (3_628, "d7e01a5ecbd6d68a360f5b4617a3e3b4") (digest ~n:1_000 ~seed:1);
  Alcotest.(check (pair int string))
    "n = 20000, seed 17" (78_294, "dd40d7275d1cc7e795b9d84e10eaca54") (digest ~n:20_000 ~seed:17)

(* Two sessions on the same topology with the same join order build the
   same tree; failing the same tree edge must then save exactly the same
   members whether the detour comes from the protection tables or the
   search.  The repair *granularity* legitimately differs — the table
   answer re-attaches a whole orphaned branch with one detour where the
   search repairs member by member — so the comparison is on outcomes
   (surviving members, valid tree), with the per-detour merge/RD
   equivalence pinned by the fuzz oracle's branch-detour differential. *)
let protection_matches_search () =
  let rng = Rng.create 21 in
  let n = 300 in
  let alpha, beta = Scale.degree_params ~n ~target_degree:6.0 in
  let g = (Scale.waxman rng ~n ~alpha ~beta).Scale.graph in
  let members =
    List.sort_uniq compare (List.init 24 (fun _ -> 1 + Rng.int rng (n - 1)))
  in
  let session ~protection =
    let s = Session.create ~protection g ~source:0 ~protocol:(Session.Smrp { d_thresh = 0.3 }) in
    List.iter (Session.join s) members;
    s
  in
  let probe = session ~protection:false in
  let tree = Session.tree probe in
  let eids =
    List.filter_map
      (fun m ->
        if Tree.is_on_tree tree m && m <> 0 then
          let e = Tree.parent_edge_id tree m in
          if e >= 0 then Some e else None
        else None)
      members
  in
  let eids =
    let rec take k = function x :: r when k > 0 -> x :: take (k - 1) r | _ -> [] in
    take 5 (List.sort_uniq compare eids)
  in
  check "found tree edges to fail" true (eids <> []);
  let any_protected = ref false in
  List.iter
    (fun eid ->
      let sp = session ~protection:true and ss = session ~protection:false in
      let rp = Session.fail sp (Failure.Link eid) in
      let rs = Session.fail ss (Failure.Link eid) in
      let survivors s = List.sort compare (Tree.members (Session.tree s)) in
      Alcotest.(check (list int))
        (Printf.sprintf "edge %d: same surviving members" eid)
        (survivors ss) (survivors sp);
      (match Tree.validate (Session.tree sp) with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "edge %d: protected tree invalid: %s" eid msg);
      check
        (Printf.sprintf "edge %d: search repaired iff tables repaired" eid)
        true
        ((rs = []) = (rp = []));
      (* The fast path is all-or-nothing per failure: a batch is never a
         mix of table-lookup and searched repairs. *)
      let protected_n =
        List.length (List.filter (fun r -> r.Session.strategy = `Protected) rp)
      in
      check "all-or-nothing" true (protected_n = 0 || protected_n = List.length rp);
      if protected_n > 0 then any_protected := true)
    eids;
  check "at least one failure answered from the tables" true !any_protected

let () =
  Alcotest.run "scale"
    [
      ( "generators",
        [
          Alcotest.test_case "waxman connected at 5k" `Quick waxman_connected;
          Alcotest.test_case "waxman deterministic" `Quick waxman_deterministic;
          Alcotest.test_case "waxman digests pinned" `Quick waxman_digests_pinned;
          qcheck_case qcheck_envelope_matches_pair_loop;
        ] );
      ( "protection",
        [
          Alcotest.test_case "table repairs match search" `Quick protection_matches_search;
        ] );
    ]
