(* Fixed-interval ring-buffered time series over the simulation clock.  See
   the interface for the merge contract.  The ring is an array indexed by
   [bucket mod capacity]; each slot remembers which bucket it holds, so
   writing a newer bucket into a slot evicts the older one in O(1) and
   stale slots (left behind when the window jumps forward) are filtered at
   read/merge time rather than eagerly scrubbed. *)

type kind = Sum | Last

type t = {
  kind : kind;
  interval : float;
  cap : int;
  bucket : int array; (* bucket id per slot; -1 = empty *)
  value : float array;
  last_ts : float array; (* last observation time per slot (Last merges) *)
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
    last_ts = Array.make capacity neg_infinity;
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
    if t.bucket.(slot) = idx then begin
      (match t.kind with
      | Sum -> t.value.(slot) <- t.value.(slot) +. v
      | Last ->
          (* Program order wins within a series, as Gauge.set does. *)
          t.value.(slot) <- v);
      if ts > t.last_ts.(slot) then t.last_ts.(slot) <- ts
    end
    else begin
      t.bucket.(slot) <- idx;
      t.value.(slot) <- v;
      t.last_ts.(slot) <- ts
    end
  end

let points t =
  let acc = ref [] in
  for slot = 0 to t.cap - 1 do
    let idx = t.bucket.(slot) in
    if live t idx then acc := (idx, t.value.(slot)) :: !acc
  done;
  List.sort (fun (a, _) (b, _) -> compare a b) !acc
  |> List.map (fun (idx, v) -> (float_of_int idx *. t.interval, v))

let compatible a b = a.kind = b.kind && a.interval = b.interval && a.cap = b.cap

let copy t =
  {
    t with
    bucket = Array.copy t.bucket;
    value = Array.copy t.value;
    last_ts = Array.copy t.last_ts;
  }

let merge_into ~into src =
  if not (compatible into src) then
    invalid_arg "Series.merge_into: series layouts differ (kind/interval/capacity)";
  let new_hi = max into.hi src.hi in
  for slot = 0 to src.cap - 1 do
    let idx = src.bucket.(slot) in
    if live src idx then begin
      if idx <= new_hi - into.cap then into.dropped <- into.dropped + 1
      else begin
        let dslot = idx mod into.cap in
        if into.bucket.(dslot) = idx then begin
          (match into.kind with
          | Sum -> into.value.(dslot) <- into.value.(dslot) +. src.value.(slot)
          | Last ->
              (* Gauge merge per bucket: the greater observation timestamp
                 wins, ties towards the larger value. *)
              let keep_ours =
                into.last_ts.(dslot) > src.last_ts.(slot)
                || (into.last_ts.(dslot) = src.last_ts.(slot)
                   && into.value.(dslot) >= src.value.(slot))
              in
              if not keep_ours then into.value.(dslot) <- src.value.(slot));
          if src.last_ts.(slot) > into.last_ts.(dslot) then
            into.last_ts.(dslot) <- src.last_ts.(slot)
        end
        else begin
          (* Either empty, or a bucket now outside the merged window: two
             live buckets within one window cannot share a slot. *)
          into.bucket.(dslot) <- idx;
          into.value.(dslot) <- src.value.(slot);
          into.last_ts.(dslot) <- src.last_ts.(slot)
        end
      end
    end
  done;
  into.hi <- new_hi;
  into.dropped <- into.dropped + src.dropped

type view = {
  v_kind : kind;
  v_interval : float;
  v_points : (float * float) list;
  v_dropped : int;
}

let view t =
  { v_kind = t.kind; v_interval = t.interval; v_points = points t; v_dropped = t.dropped }
