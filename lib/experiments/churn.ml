module Rng = Smrp_rng.Rng

type model =
  | Static of { group_size : int }
  | Flash_crowd of { crowds : int; mean_size : float; spread : float; mean_lifetime : float }
  | Diurnal of { waves : int; wave_size : int }
  | Heavy_tail of { arrivals : int; alpha : float; x_min : float }

type op = Join of int | Leave of int

type event = { at : float; op : op }

(* Geometric draw on {1, 2, ...} with the given mean (mean <= 1 always
   returns 1). *)
let geometric rng ~mean =
  if mean <= 1.0 then 1
  else begin
    let p = 1.0 /. mean in
    let u = Rng.float rng 1.0 in
    (* Inverse CDF of the geometric on {1,2,...}; u = 0 maps to 1. *)
    1 + int_of_float (Float.log1p (-.u) /. Float.log1p (-.p))
  end

(* Pareto draw: x_min * u^(-1/alpha); mean alpha*x_min/(alpha-1) for
   alpha > 1. *)
let pareto rng ~alpha ~x_min =
  let u = Rng.float rng 1.0 in
  x_min *. ((1.0 -. u) ** (-1.0 /. alpha))

(* Free-node pool with O(1) uniform draws: [free] holds the currently
   unjoined non-source nodes, [pos] each node's index in it (-1 = joined or
   source).  Swap-remove keeps the draw uniform and the schedule a pure
   function of the RNG. *)
type pool = { free : int array; mutable free_count : int; pos : int array }

let pool ~n ~source =
  let free = Array.make (max 0 (n - 1)) 0 in
  let pos = Array.make n (-1) in
  let k = ref 0 in
  for v = 0 to n - 1 do
    if v <> source then begin
      free.(!k) <- v;
      pos.(v) <- !k;
      incr k
    end
  done;
  { free; free_count = !k; pos }

let draw_free p rng =
  if p.free_count = 0 then None
  else begin
    let i = Rng.int rng p.free_count in
    let v = p.free.(i) in
    let last = p.free.(p.free_count - 1) in
    p.free.(i) <- last;
    p.pos.(last) <- i;
    p.pos.(v) <- -1;
    p.free_count <- p.free_count - 1;
    Some v
  end

let release p v =
  if p.pos.(v) < 0 then begin
    p.free.(p.free_count) <- v;
    p.pos.(v) <- p.free_count;
    p.free_count <- p.free_count + 1
  end

let schedule model rng ~n ~source ~horizon =
  if n < 1 then invalid_arg "Churn.schedule: empty topology";
  if horizon <= 0.0 then invalid_arg "Churn.schedule: non-positive horizon";
  let p = pool ~n ~source in
  let events = ref [] in
  let seq = ref 0 in
  let emit at op =
    events := (at, !seq, op) :: !events;
    incr seq
  in
  (* Draw order is not simulated-time order (burst instants are random), so
     a departed node must not be re-drawn before its scheduled leave time.
     Departures are released back into the free pool only once generation
     reaches a join instant past them; a node whose draw order runs ahead of
     its departure simply stays out of the pool — conservative (slightly
     thinner pool), never a double-join. *)
  let pending = ref [] in
  let add_pending d v =
    pending := List.merge (fun (a, _) (b, _) -> compare (a : float) b) !pending [ (d, v) ]
  in
  let release_until t =
    let rec go = function
      | (d, v) :: rest when d <= t ->
          release p v;
          go rest
      | rest -> pending := rest
    in
    go !pending
  in
  let join at =
    release_until at;
    match draw_free p rng with
    | None -> None
    | Some v ->
        emit at (Join v);
        Some v
  in
  let depart at v =
    emit at (Leave v);
    add_pending at v
  in
  (* Session candidates are drawn first (pure RNG phase), then assigned
     nodes in chronological order: the pool
     only ever moves forward in time, so a departure can never be re-drawn
     before its leave instant. *)
  let assign candidates =
    let sorted =
      List.sort
        (fun (a1, s1, _) (a2, s2, _) ->
          match compare (a1 : float) a2 with 0 -> compare (s1 : int) s2 | c -> c)
        candidates
    in
    List.iter
      (fun (at, _, life) ->
        match join at with
        | None -> ()
        | Some v -> if at +. life < horizon then depart (at +. life) v)
      sorted
  in
  (match model with
  | Static { group_size } ->
      for _ = 1 to group_size do
        ignore (join 0.0 : int option)
      done
  | Flash_crowd { crowds; mean_size; spread; mean_lifetime } ->
      (* Burst instants cover the first 60% of the horizon so lifetimes have
         room to play out; sizes are geometric draws, capped only at
         assignment time by the free pool. *)
      let candidates = ref [] in
      let cseq = ref 0 in
      for _ = 1 to crowds do
        let t0 = Rng.float rng (0.6 *. horizon) in
        let size = geometric rng ~mean:mean_size in
        for _ = 1 to size do
          let at = t0 +. Rng.float rng (max 1e-9 spread) in
          let life = Rng.exponential rng (1.0 /. mean_lifetime) in
          candidates := (at, !cseq, life) :: !candidates;
          incr cseq
        done
      done;
      assign !candidates
  | Diurnal { waves; wave_size } ->
      (* Each wave joins a cohort in its first half and drains exactly that
         cohort in its second half: join/leave balance holds per wave by
         construction, and every pending departure of wave [w] precedes all
         join instants of wave [w+1]. *)
      let period = horizon /. float_of_int (max 1 waves) in
      for w = 0 to waves - 1 do
        let base = float_of_int w *. period in
        let cohort = ref [] in
        for _ = 1 to wave_size do
          match join (base +. Rng.float rng (0.45 *. period)) with
          | None -> ()
          | Some v -> cohort := v :: !cohort
        done;
        List.iter
          (fun v -> depart (base +. (0.5 *. period) +. Rng.float rng (0.45 *. period)) v)
          (List.rev !cohort)
      done
  | Heavy_tail { arrivals; alpha; x_min } ->
      let candidates = ref [] in
      let cseq = ref 0 in
      for _ = 1 to arrivals do
        let at = Rng.float rng (0.8 *. horizon) in
        let life = pareto rng ~alpha ~x_min in
        candidates := (at, !cseq, life) :: !candidates;
        incr cseq
      done;
      assign !candidates);
  let sorted =
    List.sort
      (fun (t1, s1, _) (t2, s2, _) ->
        match compare (t1 : float) t2 with 0 -> compare (s1 : int) s2 | c -> c)
      (List.rev !events)
  in
  List.map (fun (at, _, op) -> { at; op }) sorted
