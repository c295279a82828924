module Rng = Smrp_rng.Rng
module Graph = Smrp_graph.Graph
module Connectivity = Smrp_graph.Connectivity

type t = {
  graph : Graph.t;
  positions : (float * float) array;
  repaired_edges : int list;
}

let distance (x1, y1) (x2, y2) = sqrt (((x1 -. x2) ** 2.0) +. ((y1 -. y2) ** 2.0))

let make_delay link_delay rng positions u v =
  match link_delay with
  | `Euclidean -> Float.max Waxman.min_delay (distance positions.(u) positions.(v))
  | `Unit -> 1.0
  | `Uniform (lo, hi) ->
      if not (lo > 0.0 && hi >= lo) then invalid_arg "Flat_models: bad uniform delay range";
      lo +. Rng.float rng (hi -. lo)

(* Same stitching strategy as Waxman.generate. *)
let repair link_delay rng g positions =
  let rec step added =
    let comp, count = Connectivity.components g in
    if count <= 1 then List.rev added
    else begin
      let n = Graph.node_count g in
      let best = ref None in
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          if comp.(u) <> comp.(v) then begin
            let d = distance positions.(u) positions.(v) in
            match !best with Some (bd, _, _) when bd <= d -> () | _ -> best := Some (d, u, v)
          end
        done
      done;
      match !best with
      | None -> List.rev added
      | Some (_, u, v) ->
          let id = Graph.add_edge g u v (make_delay link_delay rng positions u v) in
          step (id :: added)
    end
  in
  step []

(* [p_max] is [Some] bound on every pair's probability only when every
   pair's probability is positive, so that every pair draws: then the draw
   comes first, and one at or above the bound rejects the pair without
   computing its probability.  With [None] a zero-probability pair draws
   nothing, as it always has.  Each draw is [Rng.float rng 1.0] built here
   from its bits, so no float is boxed. *)
let generate_with ?(link_delay = `Euclidean) rng ~n ~p_max ~edge_probability =
  if n <= 0 then invalid_arg "Flat_models: n must be positive";
  let positions = Array.init n (fun _ ->
      let x = Rng.float rng 1.0 in
      let y = Rng.float rng 1.0 in
      (x, y))
  in
  let g = Graph.create n in
  let add u v = ignore (Graph.add_edge g u v (make_delay link_delay rng positions u v)) in
  (match p_max with
  | Some p_max ->
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          let r = float_of_int (Rng.bits53 rng) /. 0x1p53 in
          if r < p_max && r < edge_probability positions u v then add u v
        done
      done
  | None ->
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          let p = edge_probability positions u v in
          if p > 0.0 && float_of_int (Rng.bits53 rng) /. 0x1p53 < p then add u v
        done
      done);
  let repaired_edges = repair link_delay rng g positions in
  { graph = g; positions; repaired_edges }

let pure_random ?link_delay rng ~n ~p =
  if not (p >= 0.0 && p <= 1.0) then invalid_arg "Flat_models.pure_random: p out of [0, 1]";
  let p_max = if p > 0.0 then Some p else None in
  generate_with ?link_delay rng ~n ~p_max ~edge_probability:(fun _ _ _ -> p)

let locality ?link_delay rng ~n ~radius ~p_near ~p_far =
  if not (radius > 0.0) then invalid_arg "Flat_models.locality: radius must be positive";
  if not (p_near >= 0.0 && p_near <= 1.0 && p_far >= 0.0 && p_far <= 1.0) then
    invalid_arg "Flat_models.locality: probabilities out of [0, 1]";
  let p_max = if p_near > 0.0 && p_far > 0.0 then Some (Float.max p_near p_far) else None in
  generate_with ?link_delay rng ~n ~p_max ~edge_probability:(fun positions u v ->
      if distance positions.(u) positions.(v) < radius then p_near else p_far)

let probability_for_degree ~n ~target_degree =
  if n < 2 then invalid_arg "Flat_models.probability_for_degree: n too small";
  Float.min 1.0 (target_degree /. float_of_int (n - 1))
