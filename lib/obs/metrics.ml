(* Domain-sharded metrics registry.

   Each domain that touches a registry gets a private shard (a name ->
   instrument table of its own); instrument mutation is therefore a plain
   unsynchronized field update — the hot path an instrumented simulator pays
   per event is one increment, exactly as in the single-domain design.  The
   registry mutex guards only the rare operations: shard creation,
   instrument registration, and the merge performed by [snapshot] /
   [merge_into].

   Merge semantics (applied shard-by-shard in increasing domain-id order):
   - counters add;
   - gauges keep the value with the greatest user-supplied timestamp
     (ties broken towards the larger value), and the max of the maxima;
   - sketches and series require identical layouts and add bucket-wise.

   Exactness: counter and bucket totals are integers, so parallel and
   sequential runs of the same work merge to identical snapshots whatever
   the scheduling.  Sketch sums are float accumulations — exact (hence
   schedule-independent) when the observed values are integers (e.g. hop
   counts), and subject to the usual non-associativity of float addition
   otherwise.  Snapshots taken while other domains are still mutating
   instruments are safe (word-sized reads cannot tear) but only quiescent
   snapshots — e.g. after [Pool.map] has joined its workers — are
   guaranteed exact. *)

module Counter = struct
  type t = { mutable n : int }

  let incr c = c.n <- c.n + 1

  let add c n =
    if n < 0 then invalid_arg "Metrics.Counter.add: negative increment";
    c.n <- c.n + n

  let value c = c.n
end

module Gauge = struct
  type t = { mutable last : float; mutable last_ts : float; mutable max : float }

  (* Within a shard, program order wins: [set] overwrites [last]
     unconditionally.  [ts] (default [neg_infinity]) only matters when
     shards are merged: the shard with the greatest timestamp supplies the
     merged [last].  Stamp sets with a monotone clock (e.g. the simulation
     clock) to make cross-domain "last" well-defined. *)
  let set g ?(ts = neg_infinity) v =
    g.last <- v;
    g.last_ts <- ts;
    if v > g.max then g.max <- v

  let value g = g.last

  let last_ts g = g.last_ts

  let max_value g = g.max
end

type instrument =
  | C of Counter.t
  | G of Gauge.t
  | S of Sketch.t
  | Ts of Series.t

type shard = { domain : int; tbl : (string, instrument) Hashtbl.t }

type t = { lock : Mutex.t; mutable shards : shard list (* unordered *) }

let create () = { lock = Mutex.create (); shards = [] }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* The calling domain's shard, created on first touch.  Must be called with
   the lock held. *)
let shard_locked t =
  let id = (Domain.self () :> int) in
  match List.find_opt (fun s -> s.domain = id) t.shards with
  | Some s -> s
  | None ->
      let s = { domain = id; tbl = Hashtbl.create 16 } in
      t.shards <- s :: t.shards;
      s

let shard_count t = with_lock t (fun () -> List.length t.shards)

let kind = function
  | C _ -> "counter"
  | G _ -> "gauge"
  | S _ -> "sketch"
  | Ts _ -> "series"

let register t name make wanted =
  with_lock t (fun () ->
      let shard = shard_locked t in
      match Hashtbl.find_opt shard.tbl name with
      | Some existing ->
          if kind existing <> wanted then
            invalid_arg
              (Printf.sprintf "Metrics: %S already registered as a %s" name (kind existing));
          existing
      | None ->
          let inst = make () in
          Hashtbl.add shard.tbl name inst;
          inst)

let counter t name =
  match register t name (fun () -> C { Counter.n = 0 }) "counter" with
  | C c -> c
  | _ -> assert false

let gauge t name =
  match
    register t name
      (fun () -> G { Gauge.last = 0.0; last_ts = neg_infinity; max = neg_infinity })
      "gauge"
  with
  | G g -> g
  | _ -> assert false

let sketch t ?base ?lowest ?count name =
  match register t name (fun () -> S (Sketch.create ?base ?lowest ?count ())) "sketch" with
  | S s -> s
  | _ -> assert false

let series t ?kind ?interval ?capacity name =
  match register t name (fun () -> Ts (Series.create ?kind ?interval ?capacity ())) "series" with
  | Ts s -> s
  | _ -> assert false

(* -- Merge -------------------------------------------------------------- *)

(* A merged instrument: a value-level copy of one shard's instrument that
   later shards fold into.  Gauges keep their merge timestamp here (the
   public [value] type below does not expose it). *)
type minst =
  | MC of int
  | MG of { last : float; last_ts : float; max : float }
  | MS of Sketch.t (* private copy, mutated only by the merge fold *)
  | MT of Series.t (* likewise *)

let minst_of_instrument = function
  | C c -> MC c.Counter.n
  | G g -> MG { last = g.Gauge.last; last_ts = g.Gauge.last_ts; max = g.Gauge.max }
  | S s -> MS (Sketch.copy s)
  | Ts s -> MT (Series.copy s)

let minst_kind = function
  | MC _ -> "counter"
  | MG _ -> "gauge"
  | MS _ -> "sketch"
  | MT _ -> "series"

let merge_minst name a b =
  match (a, b) with
  | MC x, MC y -> MC (x + y)
  | MG x, MG y ->
      let last, last_ts =
        if x.last_ts > y.last_ts then (x.last, x.last_ts)
        else if y.last_ts > x.last_ts then (y.last, y.last_ts)
        else (Float.max x.last y.last, x.last_ts)
      in
      MG { last; last_ts; max = Float.max x.max y.max }
  | MS x, MS y ->
      if not (Sketch.compatible x y) then
        invalid_arg
          (Printf.sprintf "Metrics: sketch %S layouts differ across shards" name);
      Sketch.merge_into ~into:x y;
      MS x
  | MT x, MT y ->
      if not (Series.compatible x y) then
        invalid_arg
          (Printf.sprintf "Metrics: series %S layouts differ across shards" name);
      Series.merge_into ~into:x y;
      MT x
  | _ ->
      invalid_arg
        (Printf.sprintf "Metrics: %S registered as a %s in one domain and a %s in another" name
           (minst_kind a) (minst_kind b))

(* All instruments merged across shards, sorted by name.  Shards are folded
   in increasing domain-id order so the (already order-insensitive) merge is
   also procedurally deterministic. *)
let merged t =
  with_lock t (fun () ->
      let acc = Hashtbl.create 32 in
      let shards = List.sort (fun a b -> compare a.domain b.domain) t.shards in
      List.iter
        (fun s ->
          Hashtbl.iter
            (fun name inst ->
              let m = minst_of_instrument inst in
              match Hashtbl.find_opt acc name with
              | None -> Hashtbl.add acc name m
              | Some prev -> Hashtbl.replace acc name (merge_minst name prev m))
            s.tbl)
        shards;
      Hashtbl.fold (fun name m l -> (name, m) :: l) acc []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b))

type value =
  | Counter_value of int
  | Gauge_value of { last : float; max : float }
  | Sketch_value of Sketch.summary
  | Series_value of Series.view

let value_of_minst = function
  | MC n -> Counter_value n
  | MG { last; max; _ } -> Gauge_value { last; max }
  | MS s -> Sketch_value (Sketch.summarize s)
  | MT s -> Series_value (Series.view s)

let snapshot t = List.map (fun (name, m) -> (name, value_of_minst m)) (merged t)

(* Fold [src]'s merged totals into [into]'s calling-domain shard.  Missing
   instruments are created (sketches and series with [src]'s layout);
   existing ones must agree on kind and layout.  Calling this twice with
   the same [src] double-counts — it is an accumulation, not a union. *)
let merge_into ~into src =
  let entries = merged src in
  List.iter
    (fun (name, m) ->
      match m with
      | MC n -> Counter.add (counter into name) n
      | MG { last; last_ts; max } ->
          let g = gauge into name in
          let keep_ours =
            g.Gauge.last_ts > last_ts
            || (g.Gauge.last_ts = last_ts && g.Gauge.last >= last)
          in
          if not keep_ours then begin
            g.Gauge.last <- last;
            g.Gauge.last_ts <- last_ts
          end;
          if max > g.Gauge.max then g.Gauge.max <- max
      | MS src_s ->
          let s =
            match
              register into name
                (fun () ->
                  S
                    (Sketch.create ~base:(Sketch.base src_s) ~lowest:(Sketch.lowest src_s)
                       ~count:(Sketch.bucket_count src_s) ()))
                "sketch"
            with
            | S s -> s
            | _ -> assert false
          in
          if not (Sketch.compatible s src_s) then
            invalid_arg
              (Printf.sprintf "Metrics: sketch %S layouts differ across registries" name);
          Sketch.merge_into ~into:s src_s
      | MT src_ts ->
          let ts =
            match
              register into name
                (fun () ->
                  Ts
                    (Series.create ~kind:(Series.kind src_ts)
                       ~interval:(Series.interval src_ts)
                       ~capacity:(Series.capacity src_ts) ()))
                "series"
            with
            | Ts ts -> ts
            | _ -> assert false
          in
          if not (Series.compatible ts src_ts) then
            invalid_arg
              (Printf.sprintf "Metrics: series %S layouts differ across registries" name);
          Series.merge_into ~into:ts src_ts)
    entries

let render t =
  let buf = Buffer.create 256 in
  List.iter
    (fun (name, v) ->
      match v with
      | Counter_value n -> Buffer.add_string buf (Printf.sprintf "counter    %-40s %d\n" name n)
      | Gauge_value { last; max } ->
          Buffer.add_string buf
            (Printf.sprintf "gauge      %-40s %g (max %g)\n" name last
               (if max = neg_infinity then last else max))
      | Sketch_value s ->
          if s.Sketch.s_count = 0 then
            Buffer.add_string buf (Printf.sprintf "sketch     %-40s count=0\n" name)
          else
            Buffer.add_string buf
              (Printf.sprintf
                 "sketch     %-40s count=%d sum=%g p50=%g p90=%g p99=%g p999=%g max=%g\n" name
                 s.Sketch.s_count s.Sketch.s_sum
                 (Sketch.summary_quantile s 0.50)
                 (Sketch.summary_quantile s 0.90)
                 (Sketch.summary_quantile s 0.99)
                 (Sketch.summary_quantile s 0.999)
                 s.Sketch.s_max)
      | Series_value v ->
          let pts = v.Series.v_points in
          let dropped =
            if v.Series.v_dropped > 0 then Printf.sprintf " dropped=%d" v.Series.v_dropped
            else ""
          in
          (match (pts, List.rev pts) with
          | (t0, _) :: _, (t1, last) :: _ ->
              Buffer.add_string buf
                (Printf.sprintf "series     %-40s points=%d span=[%g, %g] last=%g%s\n" name
                   (List.length pts) t0 t1 last dropped)
          | _ ->
              Buffer.add_string buf (Printf.sprintf "series     %-40s points=0%s\n" name dropped)))
    (snapshot t);
  Buffer.contents buf
