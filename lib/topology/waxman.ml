module Rng = Smrp_rng.Rng
module Graph = Smrp_graph.Graph
module Connectivity = Smrp_graph.Connectivity

type t = { graph : Graph.t; positions : (float * float) array }

type link_delay = [ `Euclidean | `Unit | `Uniform of float * float ]

let min_delay = 0.01

let delay = function
  | `Euclidean -> fun _ d -> Float.max min_delay d
  | `Unit -> fun _ _ -> 1.0
  | `Uniform (lo, hi) ->
      if not (lo > 0.0 && hi >= lo && Float.is_finite hi) then
        invalid_arg "Waxman.delay: bad uniform delay range";
      fun rng _ -> lo +. Rng.float rng (hi -. lo)

let distance (x1, y1) (x2, y2) = sqrt (((x1 -. x2) ** 2.0) +. ((y1 -. y2) ** 2.0))

(* Stitch components together with the geometrically shortest inter-component
   edge until one component remains.  The draw's edges are unioned once;
   each stitching edge then takes every node's root once, and the pair scan
   compares roots. *)
let repair delay rng g positions =
  let n = Graph.node_count g in
  let uf = Connectivity.union_find n in
  let components = ref n in
  let join u v = if Connectivity.union uf u v then decr components in
  Graph.iter_edges (fun e -> join e.Graph.u e.Graph.v) g;
  let root = Array.make n 0 in
  while !components > 1 do
    for v = 0 to n - 1 do
      root.(v) <- Connectivity.find uf v
    done;
    let best_u = ref (-1) and best_v = ref (-1) and best_d = ref infinity in
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        if root.(u) <> root.(v) then begin
          let d = distance positions.(u) positions.(v) in
          if !best_u < 0 || d < !best_d then begin
            best_u := u;
            best_v := v;
            best_d := d
          end
        end
      done
    done;
    ignore (Graph.add_edge g !best_u !best_v (delay rng !best_d));
    join !best_u !best_v
  done

let draw ~link_delay rng ~n ~bound ~edge_probability =
  if n <= 0 then invalid_arg "Waxman.draw: n must be positive";
  let delay = delay link_delay in
  let positions = Array.init n (fun _ ->
      let x = Rng.float rng 1.0 in
      let y = Rng.float rng 1.0 in
      (x, y))
  in
  let g = Graph.create n in
  let add u v d = ignore (Graph.add_edge g u v (delay rng d)) in
  (* Each draw is [Rng.float rng 1.0] built here from its bits, so no float
     is boxed. *)
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      match bound with
      | Some bound ->
          let r = float_of_int (Rng.bits53 rng) /. 0x1p53 in
          if r < bound then begin
            (* [df] from plain products is within a few ulps of the [**]
               distance, so with the probability non-increasing in the
               distance this slack bounds the probability of the pair from
               above: a draw at or over it rejects the pair without the
               two [**] calls.  The [**] distance alone decides an edge. *)
            let x1, y1 = positions.(u) and x2, y2 = positions.(v) in
            let dx = x1 -. x2 and dy = y1 -. y2 in
            let df = sqrt ((dx *. dx) +. (dy *. dy)) in
            if r < edge_probability (df *. (1.0 -. 1e-12)) *. (1.0 +. 1e-12) then begin
              let d = distance positions.(u) positions.(v) in
              if r < edge_probability d then add u v d
            end
          end
      | None ->
          let d = distance positions.(u) positions.(v) in
          let p = edge_probability d in
          if p > 0.0 && float_of_int (Rng.bits53 rng) /. 0x1p53 < p then add u v d
    done
  done;
  repair delay rng g positions;
  { graph = g; positions }

let generate ?(link_delay = `Euclidean) rng ~n ~alpha ~beta =
  if not (alpha > 0.0 && alpha <= 1.0) then invalid_arg "Waxman.generate: alpha out of (0, 1]";
  if not (beta > 0.0 && beta <= 1.0) then invalid_arg "Waxman.generate: beta out of (0, 1]";
  let l = sqrt 2.0 in
  (* p = alpha * exp (-d / (beta * l)) never exceeds alpha, because exp of a
     non-positive number is at most 1 under faithful rounding and rounded
     multiplication is monotone. *)
  draw ~link_delay rng ~n ~bound:(Some alpha) ~edge_probability:(fun d ->
      alpha *. exp (-.d /. (beta *. l)))

(* Empirical average node degree over [samples] independent draws. *)
let measured_average_degree rng ~n ~alpha ~beta ~samples =
  let total = ref 0.0 in
  for _ = 1 to samples do
    let t = generate rng ~n ~alpha ~beta in
    total := !total +. Graph.average_degree t.graph
  done;
  !total /. float_of_int samples

let calibrate_alpha rng ~n ~beta ~target_degree =
  (* Expected degree is monotone in alpha, so bisection converges; the
     empirical estimate uses a fixed per-probe sample count. *)
  let probe alpha =
    let rng' = Rng.split rng in
    measured_average_degree rng' ~n ~alpha ~beta ~samples:5
  in
  let rec bisect lo hi iters =
    if iters = 0 then (lo +. hi) /. 2.0
    else
      let mid = (lo +. hi) /. 2.0 in
      if probe mid < target_degree then bisect mid hi (iters - 1) else bisect lo mid (iters - 1)
  in
  bisect 0.01 1.0 12
