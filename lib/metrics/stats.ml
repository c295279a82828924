type summary = {
  count : int;
  mean : float;
  stddev : float;
  ci95 : float;
  min : float;
  max : float;
}

let mean = function
  | [] -> invalid_arg "Stats.mean: empty sample"
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let summarize = function
  | [] -> invalid_arg "Stats.summarize: empty sample"
  | xs ->
      let n = List.length xs in
      let m = mean xs in
      let sq = List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs in
      let stddev = if n < 2 then 0.0 else sqrt (sq /. float_of_int (n - 1)) in
      (* Normal approximation: adequate for the ≥ 100-scenario samples the
         experiments draw. *)
      let ci95 = 1.96 *. stddev /. sqrt (float_of_int n) in
      {
        count = n;
        mean = m;
        stddev;
        ci95;
        min = List.fold_left Float.min infinity xs;
        max = List.fold_left Float.max neg_infinity xs;
      }

let relative_reduction ~baseline ~improved =
  if baseline = 0.0 then 0.0 else (baseline -. improved) /. baseline

let relative_increase ~baseline ~changed =
  if baseline = 0.0 then 0.0 else (changed -. baseline) /. baseline

let pct s = Printf.sprintf "%5.1f%% ± %.1f" (100.0 *. s.mean) (100.0 *. s.ci95)
