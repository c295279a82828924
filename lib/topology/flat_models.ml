type t = Waxman.t

let pure_random ?(link_delay = `Euclidean) rng ~n ~p =
  if not (p >= 0.0 && p <= 1.0) then invalid_arg "Flat_models.pure_random: p out of [0, 1]";
  let bound = if p > 0.0 then Some p else None in
  Waxman.draw ~link_delay rng ~n ~bound ~edge_probability:(fun _ -> p)

let locality ?(link_delay = `Euclidean) rng ~n ~radius ~p_near ~p_far =
  if not (radius > 0.0) then invalid_arg "Flat_models.locality: radius must be positive";
  if not (p_near >= 0.0 && p_near <= 1.0 && p_far >= 0.0 && p_far <= 1.0) then
    invalid_arg "Flat_models.locality: probabilities out of [0, 1]";
  (* [Waxman.draw]'s bound needs a probability non-increasing in the
     distance, which holds only with [p_near >= p_far]. *)
  let bound = if p_far > 0.0 && p_near >= p_far then Some p_near else None in
  Waxman.draw ~link_delay rng ~n ~bound ~edge_probability:(fun d ->
      if d < radius then p_near else p_far)

let probability_for_degree ~n ~target_degree =
  if n < 2 then invalid_arg "Flat_models.probability_for_degree: n too small";
  Float.min 1.0 (target_degree /. float_of_int (n - 1))
