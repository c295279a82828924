(* Fixed-interval ring-buffered time series over the simulation clock.  The
   ring is an array indexed by [bucket mod capacity]; each slot remembers
   which bucket it holds, so writing a newer bucket into a slot evicts the
   older one in O(1) and stale slots (left behind when the window jumps
   forward) are filtered at read time rather than eagerly scrubbed. *)

type kind = Sum | Last

type t = {
  kind : kind;
  interval : float;
  cap : int;
  bucket : int array; (* bucket id per slot; -1 = empty *)
  value : float array;
  mutable hi : int; (* highest bucket id seen; -1 while empty *)
  mutable dropped : int;
}

let create ?(kind = Sum) ?(interval = 1.0) ?(capacity = 512) () =
  if not (Float.is_finite interval) || interval <= 0.0 then
    invalid_arg "Series.create: interval must be positive";
  if capacity < 1 then invalid_arg "Series.create: capacity must be positive";
  {
    kind;
    interval;
    cap = capacity;
    bucket = Array.make capacity (-1);
    value = Array.make capacity 0.0;
    hi = -1;
    dropped = 0;
  }

(* A slot's entry is live iff it holds a bucket inside the current window
   (hi - cap, hi]. *)
let live t idx = idx >= 0 && idx > t.hi - t.cap

let observe t ~ts v =
  if not (Float.is_finite ts) || ts < 0.0 then
    invalid_arg "Series.observe: ts must be finite and non-negative";
  if not (Float.is_finite v) then invalid_arg "Series.observe: non-finite value";
  let idx = int_of_float (ts /. t.interval) in
  if t.hi >= 0 && idx <= t.hi - t.cap then t.dropped <- t.dropped + 1
  else begin
    if idx > t.hi then t.hi <- idx;
    let slot = idx mod t.cap in
    if t.bucket.(slot) <> idx then begin
      t.bucket.(slot) <- idx;
      t.value.(slot) <- v
    end
    else
      match t.kind with
      | Sum -> t.value.(slot) <- t.value.(slot) +. v
      | Last ->
          (* Program order wins within a series, as Gauge.set does. *)
          t.value.(slot) <- v
  end

let points t =
  let acc = ref [] in
  for slot = 0 to t.cap - 1 do
    let idx = t.bucket.(slot) in
    if live t idx then acc := (idx, t.value.(slot)) :: !acc
  done;
  List.sort (fun (a, _) (b, _) -> compare a b) !acc
  |> List.map (fun (idx, v) -> (float_of_int idx *. t.interval, v))

type view = {
  v_kind : kind;
  v_interval : float;
  v_points : (float * float) list;
  v_dropped : int;
}

let view t =
  { v_kind = t.kind; v_interval = t.interval; v_points = points t; v_dropped = t.dropped }
