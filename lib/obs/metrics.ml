(* Metrics registry: one name -> instrument table, owned by the domain that
   created it.

   Every driver that fans out through [Pool.map] has its workers return
   plain rows and records them on the orchestrating domain after the join,
   so no registry is written from two domains.  Registration checks the
   owner and raises otherwise; instrument mutation is a plain field update,
   the one increment an instrumented simulator pays per event. *)

module Counter = struct
  type t = { mutable n : int }

  let incr c = c.n <- c.n + 1

  let add c n =
    if n < 0 then invalid_arg "Metrics.Counter.add: negative increment";
    c.n <- c.n + n
end

module Gauge = struct
  type t = { mutable last : float; mutable max : float }

  let set g v =
    g.last <- v;
    if v > g.max then g.max <- v
end

type instrument =
  | C of Counter.t
  | G of Gauge.t
  | S of Sketch.t
  | Ts of Series.t

type t = { owner : int; tbl : (string, instrument) Hashtbl.t }

let self () = (Domain.self () :> int)

let create () = { owner = self (); tbl = Hashtbl.create 16 }

let kind = function
  | C _ -> "counter"
  | G _ -> "gauge"
  | S _ -> "sketch"
  | Ts _ -> "series"

let register t name make wanted =
  let caller = self () in
  if caller <> t.owner then
    invalid_arg
      (Printf.sprintf "Metrics: %S registered from domain %d; the registry belongs to domain %d"
         name caller t.owner);
  match Hashtbl.find_opt t.tbl name with
  | Some existing ->
      if kind existing <> wanted then
        invalid_arg
          (Printf.sprintf "Metrics: %S already registered as a %s" name (kind existing));
      existing
  | None ->
      let inst = make () in
      Hashtbl.add t.tbl name inst;
      inst

let counter t name =
  match register t name (fun () -> C { Counter.n = 0 }) "counter" with
  | C c -> c
  | _ -> assert false

let gauge t name =
  match register t name (fun () -> G { Gauge.last = 0.0; max = neg_infinity }) "gauge" with
  | G g -> g
  | _ -> assert false

let sketch t name =
  match register t name (fun () -> S (Sketch.create ())) "sketch" with
  | S s -> s
  | _ -> assert false

let series t ?kind ?interval name =
  match register t name (fun () -> Ts (Series.create ?kind ?interval ())) "series" with
  | Ts s -> s
  | _ -> assert false

type value =
  | Counter_value of int
  | Gauge_value of { last : float; max : float }
  | Sketch_value of Sketch.summary
  | Series_value of Series.view

let value = function
  | C c -> Counter_value c.Counter.n
  | G g -> Gauge_value { last = g.Gauge.last; max = g.Gauge.max }
  | S s -> Sketch_value (Sketch.summarize s)
  | Ts s -> Series_value (Series.view s)

let snapshot t =
  Hashtbl.fold (fun name inst acc -> (name, inst) :: acc) t.tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.map (fun (name, inst) -> (name, value inst))

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
