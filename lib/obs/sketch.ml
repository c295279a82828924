(* Log-bucket quantile sketch.  See the interface for the error-bound
   contract.  Bucket edges are built by repeated multiplication and searched
   linearly, so bucketing never depends on platform [log]/[exp] rounding. *)

type t = {
  base : float;
  lowest : float;
  bounds : float array; (* strictly increasing upper bounds *)
  counts : int array; (* length = Array.length bounds + 1 (overflow) *)
  mutable count : int;
  mutable sum : float;
  mutable min_v : float; (* +inf while empty *)
  mutable max_v : float; (* -inf while empty *)
}

let create ?(base = 1.118) ?(lowest = 1e-4) ?(count = 168) () =
  if base <= 1.0 then invalid_arg "Sketch.create: base must exceed 1";
  if lowest <= 0.0 then invalid_arg "Sketch.create: lowest must be positive";
  if count < 1 then invalid_arg "Sketch.create: need at least one bucket";
  let bounds = Array.make count lowest in
  for i = 1 to count - 1 do
    bounds.(i) <- bounds.(i - 1) *. base
  done;
  {
    base;
    lowest;
    bounds;
    counts = Array.make (count + 1) 0;
    count = 0;
    sum = 0.0;
    min_v = infinity;
    max_v = neg_infinity;
  }

let index bounds v =
  let n = Array.length bounds in
  let rec find i = if i = n || v <= bounds.(i) then i else find (i + 1) in
  find 0

let observe t v =
  if not (Float.is_finite v) then invalid_arg "Sketch.observe: non-finite value";
  t.count <- t.count + 1;
  t.sum <- t.sum +. v;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v;
  let i = index t.bounds v in
  t.counts.(i) <- t.counts.(i) + 1

let buckets t =
  let n = Array.length t.bounds in
  List.init (n + 1) (fun i -> ((if i = n then infinity else t.bounds.(i)), t.counts.(i)))

(* The bucket covering rank [ceil (q * count)] (rank 1 at q = 0), as an
   index into a counts array laid out like [t.counts]. *)
let rank_bucket ~counts ~total q =
  if total = 0 then invalid_arg "Sketch.summary_quantile: empty sketch";
  if not (Float.is_finite q) || q < 0.0 || q > 1.0 then
    invalid_arg "Sketch.summary_quantile: q outside [0, 1]";
  let rank = max 1 (int_of_float (ceil (q *. float_of_int total))) in
  let n = Array.length counts in
  let rec walk i acc =
    if i = n - 1 then i
    else
      let acc = acc + counts.(i) in
      if acc >= rank then i else walk (i + 1) acc
  in
  walk 0 0

(* Bucket edges: bucket 0 is (0, bounds.(0)], bucket i is
   (bounds.(i-1), bounds.(i)], the overflow bucket is (bounds.(n-1), inf).
   Finite buckets estimate at the harmonic midpoint 2*lo*hi/(lo+hi) — the
   point minimizing the worst-case relative error over the bucket, equal to
   (base-1)/(base+1) at both edges; unbounded buckets use the nearest
   finite edge.  Everything then clamps to the observed extrema. *)
let bucket_edges bounds i =
  let n = Array.length bounds in
  if i = 0 then (0.0, bounds.(0))
  else if i = n then (bounds.(n - 1), infinity)
  else (bounds.(i - 1), bounds.(i))

let clamp ~lo ~hi v = Float.max lo (Float.min hi v)

let estimate ~bounds ~min_v ~max_v i =
  let lo, hi = bucket_edges bounds i in
  let raw =
    if i = 0 then hi
    else if hi = infinity then lo
    else 2.0 *. lo *. hi /. (lo +. hi)
  in
  clamp ~lo:min_v ~hi:max_v raw

type summary = {
  base : float;
  lowest : float;
  s_count : int;
  s_sum : float;
  s_min : float;
  s_max : float;
  s_buckets : (float * int) list;
}

let summarize (t : t) =
  {
    base = t.base;
    lowest = t.lowest;
    s_count = t.count;
    s_sum = t.sum;
    s_min = t.min_v;
    s_max = t.max_v;
    s_buckets = buckets t;
  }

let summary_quantile s q =
  (* Rebuild the array views the walk expects; the final (infinite)
     bound carries the overflow count. *)
  let counts = Array.of_list (List.map snd s.s_buckets) in
  let finite = List.filter (fun (b, _) -> b <> infinity) s.s_buckets in
  let bounds = Array.of_list (List.map fst finite) in
  let i = rank_bucket ~counts ~total:s.s_count q in
  (* The extreme ranks are tracked exactly; buckets only refine between. *)
  if q = 0.0 then s.s_min
  else if q = 1.0 then s.s_max
  else estimate ~bounds ~min_v:s.s_min ~max_v:s.s_max i

(* The worst case of the harmonic-midpoint estimate over a bucket
   (lo, lo*base]: equal relative error at both edges. *)
let summary_rel_error s = (s.base -. 1.0) /. (s.base +. 1.0)
