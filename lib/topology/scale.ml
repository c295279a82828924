module Rng = Smrp_rng.Rng
module Graph = Smrp_graph.Graph

type t = { graph : Graph.t; missed_edge_bound : float }

let diag = sqrt 2.0

let default_p_floor = 1e-9

(* Buckets of the pair loop's probability envelope, built once per draw.
   At 1,000 nodes and degree 8 (seed 1) 4,101 of the 414,131 pairs inside
   the cutoff pass their bucket's bound. *)
let envelope_buckets = 1024

let degree_params ~n ~target_degree =
  if n < 2 then invalid_arg "Scale.degree_params: n must be at least 2";
  if not (target_degree > 0.0) then
    invalid_arg "Scale.degree_params: target_degree must be positive";
  (* For pairs drawn uniformly in the unit square the short-range distance
     density is ~ 2*pi*d, so E[p] = alpha * 2*pi*(beta*l)^2 once beta*l is
     small against the square; solving E[deg] = (n-1) * E[p] for beta at a
     fixed dense alpha keeps the degree constant as n grows. *)
  let alpha = 0.9 in
  let s2 = target_degree /. (float_of_int (n - 1) *. alpha *. 2.0 *. Float.pi) in
  let beta = sqrt s2 /. diag in
  (alpha, Float.min beta 1.0)

(* -- Grid buckets --------------------------------------------------------- *)

(* CSR-of-cells: [start.(c) .. start.(c+1) - 1] of [order] are the nodes of
   cell [c].  Flat int arrays only; nothing allocated per node. *)
type grid = { side : int; start : int array; order : int array }

let cell_of grid x = min (grid.side - 1) (int_of_float (x *. float_of_int grid.side))

let build_grid ~side ~n xs ys =
  let cells = side * side in
  let start = Array.make (cells + 1) 0 in
  let order = Array.make n 0 in
  let g = { side; start; order } in
  for i = 0 to n - 1 do
    let c = (cell_of g ys.{i} * side) + cell_of g xs.{i} in
    start.(c + 1) <- start.(c + 1) + 1
  done;
  for c = 1 to cells do
    start.(c) <- start.(c) + start.(c - 1)
  done;
  let fill = Array.copy start in
  for i = 0 to n - 1 do
    let c = (cell_of g ys.{i} * side) + cell_of g xs.{i} in
    order.(fill.(c)) <- i;
    fill.(c) <- fill.(c) + 1
  done;
  g

(* -- Union-find ----------------------------------------------------------- *)

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

(* -- Waxman --------------------------------------------------------------- *)

(* Stitch the raw draw into one component.  Minor components (smallest
   first) each connect to the geometrically nearest node outside their own
   component, found by an expanding ring scan over the grid — the O(n²)
   closest-pair scan of {!Waxman.draw} replaced by local search. *)
let repair delay rng g grid parent xs ys =
  let n = Graph.node_count g in
  let comp_size = Array.make n 0 in
  for i = 0 to n - 1 do
    let r = find parent i in
    comp_size.(r) <- comp_size.(r) + 1
  done;
  let main_root = ref 0 in
  for i = 0 to n - 1 do
    if comp_size.(i) > comp_size.(!main_root) then main_root := i
  done;
  let minors = ref [] in
  for i = 0 to n - 1 do
    if find parent i = i && i <> !main_root then minors := i :: !minors
  done;
  let minors =
    List.sort (fun a b -> compare comp_size.(a) comp_size.(b)) !minors
  in
  (* Node lists only for the minor components: the common case (one giant
     component, a handful of strays) allocates next to nothing. *)
  let members = Array.make n [] in
  for i = n - 1 downto 0 do
    let r = find parent i in
    if r <> !main_root then members.(r) <- i :: members.(r)
  done;
  let side = grid.side in
  (* Nearest node outside [u]'s current component: scan rings of cells
     around [u] outward; once a ring yields a candidate, scan one more ring
     (a nearer point can sit just across a cell boundary) and stop. *)
  let nearest_outside u =
    let root = find parent u in
    let cx = cell_of grid xs.{u} and cy = cell_of grid ys.{u} in
    let best = ref (-1) and best_d2 = ref infinity in
    let scan_cell gx gy =
      if gx >= 0 && gx < side && gy >= 0 && gy < side then begin
        let c = (gy * side) + gx in
        for k = grid.start.(c) to grid.start.(c + 1) - 1 do
          let v = grid.order.(k) in
          if find parent v <> root then begin
            let dx = xs.{u} -. xs.{v} and dy = ys.{u} -. ys.{v} in
            let d2 = (dx *. dx) +. (dy *. dy) in
            if d2 < !best_d2 then begin
              best := v;
              best_d2 := d2
            end
          end
        done
      end
    in
    let r = ref 0 in
    let last = ref max_int in
    while !r < side + 1 && !r <= !last do
      (if !r = 0 then scan_cell cx cy
       else begin
         for gx = cx - !r to cx + !r do
           scan_cell gx (cy - !r);
           scan_cell gx (cy + !r)
         done;
         for gy = cy - !r + 1 to cy + !r - 1 do
           scan_cell (cx - !r) gy;
           scan_cell (cx + !r) gy
         done
       end);
      if !best >= 0 && !last = max_int then last := !r + 1;
      incr r
    done;
    if !best < 0 then None else Some (!best, sqrt !best_d2)
  in
  List.iter
    (fun root ->
      (* The component may already have been merged into a previous one;
         its node list is still the right search seed either way. *)
      let best = ref None in
      List.iter
        (fun u ->
          match nearest_outside u with
          | Some (v, d) -> (
              match !best with
              | Some (_, _, bd) when bd <= d -> ()
              | _ -> best := Some (u, v, d))
          | None -> ())
        members.(root);
      match !best with
      | Some (u, v, d) ->
          ignore (Graph.add_edge g u v (delay rng d));
          ignore (union parent u v)
      | None -> ())
    minors

let waxman ?(link_delay = `Euclidean) ?(p_floor = default_p_floor) rng ~n ~alpha ~beta =
  if n <= 0 then invalid_arg "Scale.waxman: n must be positive";
  if not (alpha > 0.0 && alpha <= 1.0) then invalid_arg "Scale.waxman: alpha out of (0, 1]";
  if not (beta > 0.0 && beta <= 1.0) then invalid_arg "Scale.waxman: beta out of (0, 1]";
  if not (p_floor > 0.0) then invalid_arg "Scale.waxman: p_floor must be positive";
  let delay = Waxman.delay link_delay in
  let xs = Bigarray.(Array1.create float64 c_layout n) in
  let ys = Bigarray.(Array1.create float64 c_layout n) in
  for i = 0 to n - 1 do
    xs.{i} <- Rng.float rng 1.0;
    ys.{i} <- Rng.float rng 1.0
  done;
  let s = beta *. diag in
  (* Pairs beyond [cutoff] have edge probability below [p_floor] and are
     never sampled; the expected number of edges lost to the truncation is
     below [n^2/2 * p_floor] (see .mli). *)
  let cutoff = if p_floor >= alpha then 0.0 else Float.min diag (s *. log (alpha /. p_floor)) in
  let missed_edge_bound =
    if cutoff >= diag then 0.0 else 0.5 *. float_of_int n *. float_of_int (n - 1) *. p_floor
  in
  let side =
    let by_cutoff =
      if cutoff >= 1.0 then 1 else max 1 (int_of_float (1.0 /. Float.max cutoff 1e-6))
    in
    let cap = max 1 (int_of_float (ceil (sqrt (float_of_int n)))) in
    min by_cutoff cap
  in
  let grid = build_grid ~side ~n xs ys in
  let g = Graph.create n in
  let parent = Array.init n (fun i -> i) in
  let cutoff2 = cutoff *. cutoff in
  (* An envelope of the edge probability over [envelope_buckets] equal
     buckets of d²: [env.(k)] bounds p from above for every d² in bucket
     [k], so a pair whose draw reaches it is rejected before its [sqrt] and
     [exp].  The bucket's lower edge is taken 1e-12 low and its bound 1e-12
     high, which covers the ulps of the index product, the edge and the
     [sqrt] and [exp] of both sides, so [env.(k)] is never below the [p]
     computed for the pair; with d² <= cutoff² the index never exceeds
     [buckets].  The draw and [p] alone decide an edge, in the order of the
     plain pair loop.  A zero cutoff, or one so small that
     [envelope_buckets /. cutoff2] overflows, gets the one bucket
     [env.(0)]: only coincident nodes lie inside it. *)
  let buckets =
    if Float.is_finite (float_of_int envelope_buckets /. cutoff2) then
      min envelope_buckets (n * (n - 1) / 2)
    else 0
  in
  let inv_w = if buckets > 0 then float_of_int buckets /. cutoff2 else 0.0 in
  let env =
    Array.init (buckets + 1) (fun k ->
        let lo = if k = 0 then 0.0 else float_of_int k /. inv_w *. (1.0 -. 1e-12) in
        alpha *. exp (-.sqrt lo /. s) *. (1.0 +. 1e-12))
  in
  (* The pairs of [u] with [grid.order.(lo .. hi - 1)], [u] first. *)
  let scan_row u lo hi =
    let xu = xs.{u} and yu = ys.{u} in
    for k = lo to hi - 1 do
      let v = grid.order.(k) in
      let dx = xu -. xs.{v} and dy = yu -. ys.{v} in
      let d2 = (dx *. dx) +. (dy *. dy) in
      if d2 <= cutoff2 then begin
        (* [Rng.float rng 1.0], built here from its bits so nothing boxes. *)
        let r = float_of_int (Rng.bits53 rng) /. 0x1p53 in
        if r < env.(int_of_float (d2 *. inv_w)) then begin
          let d = sqrt d2 in
          if r < alpha *. exp (-.d /. s) then begin
            ignore (Graph.add_edge g u v (delay rng d));
            ignore (union parent u v)
          end
        end
      end
    done
  in
  (* Cell width is 1/side >= cutoff unless the sqrt(n) cap kicked in, so the
     candidate ring radius in cells is usually 1. *)
  let reach = max 1 (int_of_float (ceil (cutoff *. float_of_int side))) in
  let cells = side * side in
  for c = 0 to cells - 1 do
    let cx = c mod side and cy = c / side in
    (* Same cell: each unordered pair once. *)
    for k1 = grid.start.(c) to grid.start.(c + 1) - 1 do
      scan_row grid.order.(k1) (k1 + 1) grid.start.(c + 1)
    done;
    (* Neighbor cells in the lexicographically-positive half ring, so each
       unordered pair of cells is visited exactly once. *)
    for dy = 0 to reach do
      let dx_lo = if dy = 0 then 1 else -reach in
      for dx = dx_lo to reach do
        let gx = cx + dx and gy = cy + dy in
        if gx >= 0 && gx < side && gy < side then begin
          let c' = (gy * side) + gx in
          for k1 = grid.start.(c) to grid.start.(c + 1) - 1 do
            scan_row grid.order.(k1) grid.start.(c') grid.start.(c' + 1)
          done
        end
      done
    done
  done;
  repair delay rng g grid parent xs ys;
  Graph.freeze g;
  { graph = g; missed_edge_bound }
