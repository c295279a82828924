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

let percentile p = function
  | [] -> invalid_arg "Stats.percentile: empty sample"
  | xs ->
      if p < 0.0 || p > 1.0 then invalid_arg "Stats.percentile: p out of [0, 1]";
      let sorted = List.sort compare xs in
      let arr = Array.of_list sorted in
      let n = Array.length arr in
      let pos = p *. float_of_int (n - 1) in
      let lo = int_of_float (Float.floor pos) in
      let hi = int_of_float (Float.ceil pos) in
      if lo = hi then arr.(lo)
      else begin
        let frac = pos -. float_of_int lo in
        (arr.(lo) *. (1.0 -. frac)) +. (arr.(hi) *. frac)
      end

let relative_reduction ~baseline ~improved =
  if baseline = 0.0 then 0.0 else (baseline -. improved) /. baseline

let relative_increase ~baseline ~changed =
  if baseline = 0.0 then 0.0 else (changed -. baseline) /. baseline

let pct s = Printf.sprintf "%5.1f%% ± %.1f" (100.0 *. s.mean) (100.0 *. s.ci95)

let pp_summary ppf s =
  Format.fprintf ppf "mean %.4f ± %.4f (n=%d, sd %.4f, range [%.4f, %.4f])" s.mean s.ci95 s.count
    s.stddev s.min s.max
