(* Observability layer: metrics registry, the Chrome trace projection of
   flight records, recovery timelines, and their integration with the
   simulator. *)

module Metrics = Smrp_obs.Metrics
module Sketch = Smrp_obs.Sketch
module Flight = Smrp_obs.Flight
module Timeline = Smrp_obs.Timeline
module Causal = Smrp_obs.Causal
module Engine = Smrp_sim.Engine
module Net = Smrp_sim.Net
module Protocol = Smrp_sim.Protocol
module Graph = Smrp_graph.Graph
module Fixtures = Smrp_topology.Fixtures
module Dijkstra = Smrp_graph.Dijkstra
module Latency = Smrp_experiments.Latency
module J = Bench_support.Bench_json

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let edge g u v = (Option.get (Graph.edge_between g u v)).Graph.id

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = affix || at (i + 1)) in
  at 0

(* -- Metrics ------------------------------------------------------------ *)

let counter_and_gauge () =
  let m = Metrics.create () in
  let c = Metrics.counter m "c" in
  Metrics.Counter.incr c;
  Metrics.Counter.add c 4;
  check_int "counter" 5 (Metrics.Counter.value c);
  check_int "same instrument by name" 5 (Metrics.Counter.value (Metrics.counter m "c"));
  Alcotest.check_raises "negative add" (Invalid_argument "Metrics.Counter.add: negative increment")
    (fun () -> Metrics.Counter.add c (-1));
  let g = Metrics.gauge m "g" in
  Metrics.Gauge.set g 7.0;
  Metrics.Gauge.set g 3.0;
  Alcotest.(check (float 0.0)) "last" 3.0 (Metrics.Gauge.value g);
  Alcotest.(check (float 0.0)) "max" 7.0 (Metrics.Gauge.max_value g);
  Alcotest.check_raises "kind clash" (Invalid_argument "Metrics: \"c\" already registered as a counter")
    (fun () -> ignore (Metrics.gauge m "c"))

let snapshot_sorted_and_rendered () =
  let m = Metrics.create () in
  ignore (Metrics.counter m "zz");
  ignore (Metrics.gauge m "aa");
  ignore (Metrics.sketch m "mm");
  (match List.map fst (Metrics.snapshot m) with
  | [ "aa"; "mm"; "zz" ] -> ()
  | names -> Alcotest.failf "unsorted snapshot: %s" (String.concat "," names));
  check "render mentions every instrument" true
    (let r = Metrics.render m in
     List.for_all (fun n -> contains ~affix:n r) [ "aa"; "mm"; "zz" ])

(* -- Sharded metrics across domains ------------------------------------- *)

(* Run [body k] on 4 domains (k = 0..3) against a shared registry and
   return the registry once all have joined (a quiescent snapshot). *)
let on_four_domains body =
  let m = Metrics.create () in
  let domains = Array.init 4 (fun k -> Domain.spawn (fun () -> body m k)) in
  Array.iter Domain.join domains;
  m

let find_value m name =
  match List.assoc_opt name (Metrics.snapshot m) with
  | Some v -> v
  | None -> Alcotest.failf "instrument %S missing from snapshot" name

let sharded_hammer_exact_totals () =
  (* The satellite-1 hammer: every domain mutates its private shard through
     the plain unsynchronized hot path; the merged totals must be exact. *)
  (* Divisible by 3 so each domain's 1/2/3 rotation is exactly balanced. *)
  let per_domain = 60_000 in
  let m =
    on_four_domains (fun m k ->
        let c = Metrics.counter m "hammer.count" in
        let q = Metrics.sketch m ~base:2.0 ~lowest:1.0 ~count:4 "hammer.q" in
        for i = 1 to per_domain do
          Metrics.Counter.incr c;
          Sketch.observe q (float_of_int (1 + ((i + k) mod 3)))
        done;
        Metrics.Gauge.set (Metrics.gauge m "hammer.gauge") ~ts:(float_of_int k)
          (float_of_int (10 * k)))
  in
  check_int "one shard per domain" 4 (Metrics.shard_count m);
  (match find_value m "hammer.count" with
  | Metrics.Counter_value n -> check_int "counter total" (4 * per_domain) n
  | _ -> Alcotest.fail "hammer.count is not a counter");
  (match find_value m "hammer.q" with
  | Metrics.Sketch_value s ->
      check_int "sketch count" (4 * per_domain) s.Sketch.s_count;
      (* Each domain observes 1, 2 and 3 in a rotation over [per_domain]
         observations; summed over the 4 offsets the multiset is exactly
         balanced, so the total is 4 * per_domain * 2. *)
      Alcotest.(check (float 0.0)) "sketch sum exact" (float_of_int (8 * per_domain)) s.Sketch.s_sum;
      check_int "bucket mass conserved" (4 * per_domain)
        (List.fold_left (fun acc (_, n) -> acc + n) 0 s.Sketch.s_buckets)
  | _ -> Alcotest.fail "hammer.q is not a sketch");
  match find_value m "hammer.gauge" with
  | Metrics.Gauge_value { last; max } ->
      Alcotest.(check (float 0.0)) "last writer by timestamp" 30.0 last;
      Alcotest.(check (float 0.0)) "max of maxima" 30.0 max
  | _ -> Alcotest.fail "hammer.gauge is not a gauge"

let gauge_merge_semantics () =
  let m =
    on_four_domains (fun m k ->
        (* Older timestamp carries the larger value: "last" must follow the
           timestamp, not program order across domains. *)
        Metrics.Gauge.set (Metrics.gauge m "g.ts") ~ts:(float_of_int (10 - k))
          (float_of_int (100 * k));
        (* Equal timestamps: the tie breaks towards the larger value. *)
        Metrics.Gauge.set (Metrics.gauge m "g.tie") ~ts:1.0 (float_of_int k);
        (* Unstamped sets all carry ts = -inf; max still merges. *)
        Metrics.Gauge.set (Metrics.gauge m "g.unstamped") (float_of_int (k * k)))
  in
  (match find_value m "g.ts" with
  | Metrics.Gauge_value { last; max } ->
      Alcotest.(check (float 0.0)) "greatest ts wins (k=0)" 0.0 last;
      Alcotest.(check (float 0.0)) "max over shards" 300.0 max
  | _ -> Alcotest.fail "g.ts is not a gauge");
  (match find_value m "g.tie" with
  | Metrics.Gauge_value { last; _ } ->
      Alcotest.(check (float 0.0)) "tie breaks to larger value" 3.0 last
  | _ -> Alcotest.fail "g.tie is not a gauge");
  match find_value m "g.unstamped" with
  | Metrics.Gauge_value { last; max } ->
      Alcotest.(check (float 0.0)) "all-tied merge is the max" 9.0 last;
      Alcotest.(check (float 0.0)) "max" 9.0 max
  | _ -> Alcotest.fail "g.unstamped is not a gauge"

let kind_clash_across_domains_rejected () =
  let m =
    on_four_domains (fun m k ->
        if k = 0 then Metrics.Counter.incr (Metrics.counter m "x")
        else if k = 1 then Metrics.Gauge.set (Metrics.gauge m "x") 1.0)
  in
  Alcotest.check_raises "merge rejects kind clash"
    (Invalid_argument "Metrics: \"x\" registered as a counter in one domain and a gauge in another")
    (fun () -> ignore (Metrics.snapshot m))

let merge_into_accumulates () =
  let src = Metrics.create () in
  Metrics.Counter.add (Metrics.counter src "c") 5;
  let q = Metrics.sketch src ~base:2.0 ~lowest:1.0 ~count:3 "q" in
  List.iter (Sketch.observe q) [ 1.0; 50.0 ];
  Metrics.Gauge.set (Metrics.gauge src "g") ~ts:7.0 3.0;
  let into = Metrics.create () in
  (* An older stamped value in [into] must lose to the newer one in [src]. *)
  Metrics.Gauge.set (Metrics.gauge into "g") ~ts:1.0 42.0;
  Metrics.merge_into ~into src;
  (* The sketch was created in [into] with src's exact layout. *)
  (match find_value into "q" with
  | Metrics.Sketch_value s ->
      check_int "count copied" 2 s.Sketch.s_count;
      Alcotest.(check (float 0.0)) "sum copied" 51.0 s.Sketch.s_sum;
      check_int "buckets copied" 4 (List.length s.Sketch.s_buckets);
      check "overflow bucket kept" true (List.nth s.Sketch.s_buckets 3 = (infinity, 1))
  | _ -> Alcotest.fail "q is not a sketch");
  (match find_value into "g" with
  | Metrics.Gauge_value { last; max } ->
      Alcotest.(check (float 0.0)) "newer src timestamp wins" 3.0 last;
      Alcotest.(check (float 0.0)) "max across registries" 42.0 max
  | _ -> Alcotest.fail "g is not a gauge");
  (* Accumulation, not union: a second merge double-counts. *)
  Metrics.merge_into ~into src;
  match find_value into "c" with
  | Metrics.Counter_value n -> check_int "second merge adds again" 10 n
  | _ -> Alcotest.fail "c is not a counter"

(* -- Sketches ------------------------------------------------------------ *)

let exact_quantile values q =
  (* Rank-based reference on the raw data: value at rank
     [max 1 (ceil (q * n))], matching the sketch's rank rule. *)
  let sorted = List.sort compare values in
  let n = List.length sorted in
  let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
  List.nth sorted (rank - 1)

let sketch_quantile_error_bounds () =
  (* 1..1000: every estimate must sit within the advertised relative error
     of the rank-true quantile, and the hard bucket bounds must bracket
     it. *)
  let s = Sketch.create () in
  let values = List.init 1000 (fun i -> float_of_int (i + 1)) in
  List.iter (Sketch.observe s) values;
  check_int "count" 1000 (Sketch.count s);
  Alcotest.(check (float 1e-6)) "sum exact on integers" 500500.0 (Sketch.sum s);
  let err = Sketch.rel_error s in
  check "error bound is ~5.6%" true (err > 0.05 && err < 0.06);
  List.iter
    (fun q ->
      let truth = exact_quantile values q in
      let est = Sketch.quantile s q in
      check
        (Printf.sprintf "q=%g estimate %g within %.1f%% of %g" q est (100.0 *. err) truth)
        true
        (Float.abs (est -. truth) <= (err *. truth) +. 1e-9);
      let lo, hi = Sketch.quantile_bounds s q in
      check (Printf.sprintf "q=%g bounds bracket truth" q) true (lo <= truth && truth <= hi))
    [ 0.0; 0.5; 0.9; 0.99; 0.999; 1.0 ]

let sketch_estimates_clamped_to_extrema () =
  let s = Sketch.create () in
  Sketch.observe s 3.0;
  List.iter
    (fun q -> Alcotest.(check (float 0.0)) "single value is every quantile" 3.0 (Sketch.quantile s q))
    [ 0.0; 0.5; 1.0 ];
  (* Values below [lowest] and beyond the last bound still clamp to the
     observed extrema. *)
  let tiny = Sketch.create ~base:2.0 ~lowest:1.0 ~count:3 () in
  Sketch.observe tiny 0.25;
  Sketch.observe tiny 1e6;
  Alcotest.(check (float 0.0)) "p0 clamps to min" 0.25 (Sketch.quantile tiny 0.0);
  Alcotest.(check (float 0.0)) "p100 clamps to max (overflow bucket)" 1e6 (Sketch.quantile tiny 1.0)

let sketch_guards () =
  let s = Sketch.create () in
  Alcotest.check_raises "empty quantile" (Invalid_argument "Sketch.quantile: empty sketch")
    (fun () -> ignore (Sketch.quantile s 0.5));
  Sketch.observe s 1.0;
  Alcotest.check_raises "q out of range" (Invalid_argument "Sketch.quantile: q outside [0, 1]")
    (fun () -> ignore (Sketch.quantile s 1.5));
  Alcotest.check_raises "non-finite observation"
    (Invalid_argument "Sketch.observe: non-finite value") (fun () -> Sketch.observe s nan);
  Alcotest.check_raises "layout mismatch"
    (Invalid_argument "Sketch.merge_into: sketch layouts differ (base/lowest/bucket count)")
    (fun () -> Sketch.merge_into ~into:s (Sketch.create ~base:2.0 ()))

let sketch_merge_matches_sequential () =
  (* Split one observation stream across two sketches; the merge must equal
     the sketch that saw everything (plain-data summaries compare with =). *)
  let all = List.init 500 (fun i -> Float.of_int (1 + (i * i mod 97))) in
  let whole = Sketch.create () in
  List.iter (Sketch.observe whole) all;
  let a = Sketch.create () and b = Sketch.create () in
  List.iteri (fun i v -> Sketch.observe (if i mod 2 = 0 then a else b) v) all;
  Sketch.merge_into ~into:a b;
  check "merged summary equals sequential" true (Sketch.summarize a = Sketch.summarize whole);
  Alcotest.(check (float 0.0)) "merged p99 equals sequential" (Sketch.quantile whole 0.99)
    (Sketch.quantile a 0.99)

let sketch_summary_roundtrips_quantiles () =
  let s = Sketch.create () in
  List.iter (Sketch.observe s) [ 1.0; 2.0; 2.0; 8.0; 40.0 ];
  let sm = Sketch.summarize s in
  List.iter
    (fun q ->
      Alcotest.(check (float 0.0)) "summary quantile = live quantile" (Sketch.quantile s q)
        (Sketch.summary_quantile sm q))
    [ 0.0; 0.5; 0.9; 1.0 ];
  Alcotest.(check (float 0.0)) "summary error bound" (Sketch.rel_error s)
    (Sketch.summary_rel_error sm)

(* -- Series -------------------------------------------------------------- *)

module Series = Smrp_obs.Series

let series_bucketing_kinds () =
  let sum = Series.create ~interval:2.0 ~capacity:8 () in
  List.iter (fun (ts, v) -> Series.observe sum ~ts v) [ (0.0, 1.0); (1.9, 2.0); (4.0, 5.0) ];
  (* ts 0 and 1.9 share bucket 0; 4.0 opens bucket 2. *)
  check "sum adds within bucket" true
    (Series.points sum = [ (0.0, 3.0); (4.0, 5.0) ]);
  let last = Series.create ~kind:Series.Last ~interval:2.0 ~capacity:8 () in
  List.iter (fun (ts, v) -> Series.observe last ~ts v) [ (0.0, 10.0); (1.0, 7.0); (4.0, 5.0) ];
  check "last overwrites within bucket" true
    (Series.points last = [ (0.0, 7.0); (4.0, 5.0) ]);
  check_int "samples counted" 3 (Series.samples last)

let series_ring_eviction () =
  let s = Series.create ~interval:1.0 ~capacity:4 () in
  for i = 0 to 9 do
    Series.observe s ~ts:(float_of_int i) 1.0
  done;
  (* Window is (hi - capacity, hi] = buckets 6..9. *)
  check "window keeps last capacity buckets" true
    (Series.points s = [ (6.0, 1.0); (7.0, 1.0); (8.0, 1.0); (9.0, 1.0) ]);
  check_int "no drops while moving forward" 0 (Series.dropped s);
  Series.observe s ~ts:2.0 1.0;
  check_int "stale observation dropped" 1 (Series.dropped s);
  check "stale observation did not resurface" true (List.length (Series.points s) = 4);
  Alcotest.check_raises "negative ts"
    (Invalid_argument "Series.observe: ts must be finite and non-negative") (fun () ->
      Series.observe s ~ts:(-1.0) 0.0)

let series_merge_semantics () =
  (* Sum: bucket-wise addition. *)
  let a = Series.create ~capacity:16 () and b = Series.create ~capacity:16 () in
  Series.observe a ~ts:1.0 2.0;
  Series.observe a ~ts:5.0 1.0;
  Series.observe b ~ts:1.5 3.0;
  Series.observe b ~ts:9.0 4.0;
  Series.merge_into ~into:a b;
  check "sum merge adds per bucket" true
    (Series.points a = [ (1.0, 5.0); (5.0, 1.0); (9.0, 4.0) ]);
  (* Last: per bucket the greater observation ts supplies the value, ties
     break towards the larger value — the gauge rule. *)
  let x = Series.create ~kind:Series.Last ~capacity:16 ()
  and y = Series.create ~kind:Series.Last ~capacity:16 () in
  Series.observe x ~ts:1.2 10.0;
  Series.observe y ~ts:1.7 20.0 (* newer wins bucket 1 *);
  Series.observe x ~ts:2.5 9.0;
  Series.observe y ~ts:2.5 3.0 (* tie: larger value wins bucket 2 *);
  Series.merge_into ~into:x y;
  check "last merge follows gauge rule" true (Series.points x = [ (1.0, 20.0); (2.0, 9.0) ]);
  Alcotest.check_raises "layout mismatch"
    (Invalid_argument "Series.merge_into: series layouts differ (kind/interval/capacity)")
    (fun () -> Series.merge_into ~into:a (Series.create ~capacity:8 ()))

(* -- Sketches and series across domains ---------------------------------- *)

let sharded_sketch_series_equal_sequential () =
  (* The tentpole identity: a 4-domain fan-out recording into registry
     sketches and series merges to exactly the snapshot of a sequential run
     making the same observations.  Snapshot values are plain data, so the
     whole comparison is structural equality. *)
  let body m k =
    let q = Metrics.sketch m "hammer.q" in
    let drops = Metrics.series m "hammer.drops" in
    for i = 1 to 5_000 do
      Sketch.observe q (float_of_int (1 + ((i * (k + 1)) mod 113)));
      Series.observe drops ~ts:(float_of_int ((i + k) mod 400)) 1.0
    done
  in
  let par = on_four_domains body in
  let seq = Metrics.create () in
  for k = 0 to 3 do
    body seq k
  done;
  check_int "four shards" 4 (Metrics.shard_count par);
  check_int "one shard sequentially" 1 (Metrics.shard_count seq);
  check "merged snapshot equals sequential" true (Metrics.snapshot par = Metrics.snapshot seq);
  match find_value par "hammer.q" with
  | Metrics.Sketch_value s ->
      check_int "sketch count" 20_000 s.Sketch.s_count;
      check "sum exact on integer observations" true
        (Float.is_integer s.Sketch.s_sum && s.Sketch.s_sum > 0.0)
  | _ -> Alcotest.fail "hammer.q is not a sketch"

let sketch_layout_mismatch_across_shards_rejected () =
  let m =
    on_four_domains (fun m k ->
        let base = if k mod 2 = 0 then 1.25 else 2.0 in
        Sketch.observe (Metrics.sketch m ~base "q.clash") 5.0)
  in
  Alcotest.check_raises "merge rejects differing sketch layouts"
    (Invalid_argument "Metrics: sketch \"q.clash\" layouts differ across shards") (fun () ->
      ignore (Metrics.snapshot m))

let series_layout_mismatch_across_shards_rejected () =
  let m =
    on_four_domains (fun m k ->
        let interval = if k mod 2 = 0 then 1.0 else 2.0 in
        Series.observe (Metrics.series m ~interval "s.clash") ~ts:1.0 1.0)
  in
  Alcotest.check_raises "merge rejects differing series layouts"
    (Invalid_argument "Metrics: series \"s.clash\" layouts differ across shards") (fun () ->
      ignore (Metrics.snapshot m))

(* -- Chrome trace projection --------------------------------------------- *)

(* The projection of a record stream as JSONL, and its events parsed back
   (every line must be well-formed JSON). *)
let chrome ?pid ?(msg_label = Protocol.msg_label) records =
  let buf = Buffer.create 4096 in
  Causal.to_chrome ?pid ~msg_label
    (fun line ->
      Buffer.add_string buf line;
      Buffer.add_char buf '\n')
    records;
  Buffer.contents buf

type event = { ph : string; name : string; ts : float; dur : float; pid : int; tid : int; args : J.t }

let events jsonl =
  String.split_on_char '\n' jsonl
  |> List.filter (fun l -> l <> "")
  |> List.map (fun line ->
         let j = J.parse line in
         let num k = Option.value ~default:0.0 (Option.bind (J.member k j) J.to_num) in
         {
           ph = Option.get (Option.bind (J.member "ph" j) J.to_str);
           name = Option.get (Option.bind (J.member "name" j) J.to_str);
           ts = num "ts";
           dur = num "dur";
           pid = int_of_float (num "pid");
           tid = int_of_float (num "tid");
           args = Option.value ~default:J.Null (J.member "args" j);
         })

let arg k e = int_of_float (Option.get (Option.bind (J.member k e.args) J.to_num))

let count ?ph name evs =
  List.length
    (List.filter (fun e -> e.name = name && match ph with Some p -> e.ph = p | None -> true) evs)

let span_nesting_in_ring () =
  (* Each join's candidate search encloses its Dijkstra run; a reshape
     sweep encloses its rounds and every run it makes.  In the projection
     each inner span lies within its enclosing one, on the recording
     domain's track. *)
  let g = Fixtures.grid 5 in
  let recorded f =
    let fl = Flight.create ~capacity:65536 () in
    let ws = Dijkstra.workspace () in
    Dijkstra.set_flight ws (Flight.recorder fl);
    check "workspace recorder enabled" true (Flight.enabled (Dijkstra.workspace_flight ws));
    let v = f ws in
    (v, events (chrome (Flight.snapshot fl)))
  in
  check "null recorder disabled" false (Flight.enabled Flight.null);
  let spans evs name = List.filter (fun e -> e.name = name && e.ph = "X") evs in
  (* Compare in whole ticks: decimal microseconds do not add exactly. *)
  let ticks x = int_of_float (Float.round (x *. 10.0)) in
  let within outer inner =
    ticks outer.ts <= ticks inner.ts
    && ticks inner.ts + ticks inner.dur <= ticks outer.ts + ticks outer.dur
  in
  let enclosed evs ~outer ~inner =
    List.for_all (fun i -> List.exists (fun o -> within o i) (spans evs outer)) (spans evs inner)
  in
  let members = [ 24; 20; 4; 12 ] in
  let tree, build = recorded (fun ws -> Smrp_core.Smrp.build ~ws g ~source:0 ~members) in
  (* An on-tree joiner subscribes in place, without a search. *)
  check "searches recorded" true (spans build "smrp.candidate_search" <> []);
  check "searches name their joiner" true
    (List.for_all (fun e -> List.mem (arg "joiner" e) members) (spans build "smrp.candidate_search"));
  (* Joins also run the joiner's SPF distance search outside it. *)
  check "every search encloses its run" true
    (List.for_all
       (fun o -> List.exists (within o) (spans build "dijkstra.run"))
       (spans build "smrp.candidate_search"));
  check "runs carry the graph size" true
    (List.for_all (fun e -> arg "n" e = Graph.node_count g) (spans build "dijkstra.run"));
  let stats, sweep = recorded (fun ws -> Smrp_core.Reshape.stabilize ~ws tree) in
  (match spans sweep "reshape.stabilize" with
  | [ e ] ->
      check_int "rounds arg" stats.Smrp_core.Reshape.rounds (arg "rounds" e);
      check_int "switches arg" stats.Smrp_core.Reshape.switches (arg "switches" e)
  | l -> Alcotest.failf "expected one stabilize span, got %d" (List.length l));
  check_int "one round span per round" stats.Smrp_core.Reshape.rounds
    (List.length (spans sweep "reshape.round"));
  check "rounds inside the sweep" true (enclosed sweep ~outer:"reshape.stabilize" ~inner:"reshape.round");
  check "runs inside the sweep" true (enclosed sweep ~outer:"reshape.stabilize" ~inner:"dijkstra.run");
  check "one domain track" true
    (List.for_all (fun e -> e.tid = (Domain.self () :> int)) (build @ sweep))

let ring_keeps_last_events () =
  (* Capacity 3 rounds up to 4: six records keep the last four. *)
  let fl = Flight.create ~capacity:3 () in
  let r = Flight.recorder fl in
  for i = 1 to 6 do
    Flight.record r ~tick:(10 * i) ~code:Flight.span_pool_task ~a:5 ~b:i
  done;
  check_int "two dropped" 2 (Flight.dropped fl);
  let evs = events (chrome (Flight.snapshot fl)) in
  Alcotest.(check (list int)) "last four" [ 3; 4; 5; 6 ] (List.map (arg "index") evs);
  Alcotest.(check (list (float 1e-9))) "ticks as microseconds" [ 3.0; 4.0; 5.0; 6.0 ]
    (List.map (fun e -> e.ts) evs)

let json_shape () =
  let rec_ ~seq ~tick ~code =
    { Flight.d_tick = tick; d_code = code; d_a = 0; d_b = Flight.pack 7 3; d_domain = 0; d_seq = seq }
  in
  let j =
    chrome ~pid:2
      ~msg_label:(fun _ -> "fra\"me")
      [
        rec_ ~seq:0 ~tick:15_000_000 ~code:Flight.net_send;
        rec_ ~seq:1 ~tick:17_500_000 ~code:Flight.net_deliver;
      ]
  in
  List.iter
    (fun affix -> check ("json contains " ^ affix) true (contains ~affix j))
    [
      "\"ph\":\"X\"";
      "\"ts\":1500000.0";
      "\"dur\":250000.0";
      "\"name\":\"fra\\\"me\"";
      "\"cat\":\"net\"";
      "\"pid\":2";
      "\"tid\":7";
      "\"args\":{\"dst\":3}";
    ];
  match events j with
  | [ e ] -> check "parses back" true (e.name = "fra\"me" && e.dur = 250000.0)
  | l -> Alcotest.failf "expected one frame span, got %d" (List.length l)

let stitched_multi_domain_monotone_per_tid () =
  (* Four domains record into one flight recorder with deliberately
     overlapping ticks; the projected stream must carry domain ids as tids,
     be globally ts-ordered, and be monotone within every tid. *)
  let fl = Flight.create ~capacity:1000 () in
  let record k =
    let r = Flight.recorder fl in
    for i = 0 to 9 do
      Flight.record r ~tick:(10 * i) ~code:Flight.span_pool_task ~a:0 ~b:((100 * k) + i)
    done
  in
  let domains = Array.init 4 (fun k -> Domain.spawn (fun () -> record k)) in
  Array.iter Domain.join domains;
  let evs = events (chrome (Flight.snapshot fl)) in
  check_int "all records projected" 40 (List.length evs);
  let tids = List.sort_uniq compare (List.map (fun e -> e.tid) evs) in
  check_int "four distinct tids" 4 (List.length tids);
  let rec sorted = function a :: (b :: _ as rest) -> a.ts <= b.ts && sorted rest | _ -> true in
  check "globally ts-ordered" true (sorted evs);
  List.iter
    (fun tid ->
      let mine = List.filter (fun e -> e.tid = tid) evs in
      check_int "per-tid events" 10 (List.length mine);
      check "monotone per tid" true (sorted mine);
      (* Each domain's own order survives the merge. *)
      List.iteri (fun i e -> check_int "recording order kept" i (arg "index" e mod 100)) mine)
    tids;
  (* Per-domain rings are individually bounded. *)
  let fl2 = Flight.create ~capacity:4 () in
  let d =
    Domain.spawn (fun () ->
        let r = Flight.recorder fl2 in
        for i = 1 to 6 do
          Flight.record r ~tick:(10 * i) ~code:Flight.span_pool_task ~a:0 ~b:i
        done)
  in
  Domain.join d;
  Alcotest.(check (list int)) "ring bound per domain" [ 3; 4; 5; 6 ]
    (List.map (arg "index") (events (chrome (Flight.snapshot fl2))))

(* One fully instrumented seeded simulation; used by the determinism and
   smoke tests below. *)
let instrumented_run ~observed =
  let metrics = if observed then Some (Metrics.create ()) else None in
  let flight = if observed then Some (Flight.create ~capacity:65536 ()) else None in
  let engine = Engine.create ?metrics ?flight:(Option.map Flight.recorder flight) () in
  let g = Fixtures.ring 5 in
  let p = Protocol.create engine g ~source:0 in
  Protocol.start p;
  ignore (Engine.schedule engine ~delay:0.5 (fun () -> Protocol.join p 2));
  ignore (Engine.schedule engine ~delay:1.5 (fun () -> Protocol.join p 3));
  Engine.run ~until:20.0 engine;
  Protocol.inject_link_failure p (edge g 0 1);
  Engine.run ~until:60.0 engine;
  (metrics, flight, p)

let sinks_deterministic_across_runs () =
  (* Two identical seeded runs must produce byte-identical JSONL and equal
     record streams — sim records are keyed on the simulation clock, not
     wall time. *)
  let run () =
    match instrumented_run ~observed:true with
    | Some m, Some fl, _ -> (Flight.snapshot fl, chrome ~pid:1 (Flight.snapshot fl), Metrics.render m)
    | _ -> assert false
  in
  let r1, j1, m1 = run () in
  let r2, j2, m2 = run () in
  check "jsonl non-trivial" true (String.length j1 > 1000);
  check "jsonl identical" true (String.equal j1 j2);
  check "metrics render identical" true (String.equal m1 m2);
  check "record streams identical" true (r1 = r2)

let latency_trace_holds_whole_run () =
  (* The default [smrp latency --trace] scenario: each side's own recorder
     holds its whole run, two runs write byte-identical files, and each
     side carries one failure and one recovery span per episode. *)
  let jsonl r =
    let buf = Buffer.create (1 lsl 20) in
    Latency.to_chrome r (fun line ->
        Buffer.add_string buf line;
        Buffer.add_char buf '\n');
    Buffer.contents buf
  in
  let run () = Option.get (Latency.run_one ~flight:true ~seed:25 Latency.default) in
  let r = run () in
  List.iter
    (fun (side : Latency.side_result) ->
      check_int "no record dropped" 0 (Flight.dropped (Option.get side.Latency.flight)))
    [ r.Latency.smrp; r.Latency.pim ];
  let j = jsonl r in
  check "two runs byte-identical" true (String.equal (Digest.string j) (Digest.string (jsonl (run ()))));
  let evs = events j in
  List.iter
    (fun (pid, (side : Latency.side_result)) ->
      let mine = List.filter (fun e -> e.pid = pid) evs in
      let eps = List.length side.Latency.episodes in
      check "episodes recorded" true (eps > 0);
      check_int "process named" 1 (count ~ph:"M" "process_name" mine);
      check_int "one failure event" 1 (count "proto.failure" mine);
      check_int "one recovery span per episode" eps (count "recovery" mine);
      check_int "restored episodes are complete spans" side.Latency.restored
        (count ~ph:"X" "recovery" mine))
    [ (1, r.Latency.smrp); (2, r.Latency.pim) ]

(* -- Timeline ----------------------------------------------------------- *)

let timeline_recorder_guards () =
  (* The milestone tracker now lives in Causal; Timeline is a projection of
     its episodes, so the guard semantics are pinned through both modules. *)
  let r = Causal.create () in
  (* Milestones before the failure are ignored. *)
  Causal.note_detected r ~member:1 ~ts:0.5;
  check "no episode before failure" true (Causal.episodes r = []);
  Causal.note_failure r ~ts:1.0;
  Causal.note_detected r ~member:1 ~ts:1.5;
  Causal.note_detected r ~member:1 ~ts:9.9 (* first detection wins *);
  Causal.note_signalled r ~member:1 ~ts:1.6;
  Causal.note_installed r ~member:1 ~ts:1.8;
  Causal.note_installed r ~member:1 ~ts:1.9 (* refresh re-confirmation: ignored *);
  Causal.note_first_data r ~member:1 ~ts:2.0;
  Causal.note_signalled r ~member:1 ~ts:5.0 (* closed: ignored *);
  match Causal.episodes r with
  | [ e ] ->
      check_int "member" 1 e.Timeline.member;
      check_int "attempts" 1 e.Timeline.attempts;
      let d = Timeline.phase_durations e in
      let get p = Option.get (List.assoc p d) in
      Alcotest.(check (float 1e-9)) "detection" 0.5 (get Timeline.Detection);
      Alcotest.(check (float 1e-9)) "signalling" 0.1 (get Timeline.Signalling);
      Alcotest.(check (float 1e-9)) "installation" 0.2 (get Timeline.Installation);
      Alcotest.(check (float 1e-9)) "first data" 0.2 (get Timeline.First_data);
      Alcotest.(check (float 1e-9)) "total" 1.0 (Option.get (Timeline.total e));
      check "render has a row" true (contains ~affix:"1" (Timeline.render [ e ]))
  | eps -> Alcotest.failf "expected one episode, got %d" (List.length eps)

let protocol_emits_well_formed_timeline () =
  (* Smoke test: a recovery run produces a complete, ordered episode whose
     milestones bracket the member's reported detection/restoration. *)
  let metrics, flight, p = instrumented_run ~observed:true in
  let eps = Protocol.timeline p in
  check "episodes recorded" true (eps <> []);
  List.iter
    (fun (e : Timeline.episode) ->
      List.iter
        (fun (p, d) ->
          match d with
          | Some d -> check (Timeline.phase_name p ^ " non-negative") true (d >= 0.0)
          | None -> Alcotest.failf "missing %s milestone" (Timeline.phase_name p))
        (Timeline.phase_durations e);
      let report = List.find (fun r -> r.Protocol.member = e.Timeline.member) (Protocol.reports p) in
      (match (report.Protocol.restored, Timeline.total e) with
      | Some restored, Some total -> Alcotest.(check (float 1e-9)) "total = reported restoration" restored total
      | _ -> Alcotest.fail "member not restored"))
    eps;
  (* The phase table renders one row per episode. *)
  let table = Protocol.phase_table p in
  check "table has header" true (contains ~affix:"detect(s)" table);
  (* The trace carries the recovery lifecycle for each disrupted member. *)
  let evs = events (chrome (Flight.snapshot (Option.get flight))) in
  let n = List.length eps in
  check_int "failure instant" 1 (count "proto.failure" evs);
  check_int "one recovery span per episode" n (count "recovery" evs);
  check_int "every recovery span closes" n (count ~ph:"X" "recovery" evs);
  check "detected instants" true (count "proto.detected" evs >= n);
  check "first_data instants" true (count "proto.first_data" evs >= n);
  (* Each recovery span opens at its member's detection and encloses the
     detour's signal and installation instants on the same track. *)
  List.iter
    (fun span ->
      let inside name =
        List.exists
          (fun e ->
            e.name = name && e.tid = span.tid && span.ts <= e.ts && e.ts <= span.ts +. span.dur)
          evs
      in
      check "opens at detection" true
        (List.exists (fun e -> e.name = "proto.detected" && e.tid = span.tid && e.ts = span.ts) evs);
      check "signal inside" true (inside "proto.signal");
      check "installation inside" true (inside "proto.installed"))
    (List.filter (fun e -> e.name = "recovery") evs);
  (* Frame events: one per outcome, as the net counted them. *)
  let frames = List.filter (fun e -> e.ph = "X" && e.name <> "recovery") evs in
  let prefixed prefix =
    List.length
      (List.filter (fun e -> String.starts_with ~prefix e.name) (List.filter (fun e -> e.ph = "i") evs))
  in
  let counters = Net.counters (Protocol.net p) in
  let counter k = List.assoc k counters in
  check_int "delivered frames" (counter "delivered") (List.length frames);
  check_int "send-time drops" (counter "dropped_failure_at_send") (prefixed "drop.down:");
  check_int "in-flight drops" (counter "dropped_failure_in_flight") (prefixed "drop.in_flight:");
  check_int "losses" (counter "lost") (prefixed "drop.loss:");
  check "frames named by message kind" true
    (List.for_all (fun e -> List.mem e.name [ "hello"; "refresh"; "prune"; "data"; "join_req" ]) frames);
  (* Metrics: engine, net and recovery-phase instruments are live. *)
  let m = Metrics.render (Option.get metrics) in
  List.iter
    (fun affix -> check ("metrics contain " ^ affix) true (contains ~affix m))
    [ "engine.events_fired"; "net.frames_sent"; "recovery.phase.detection.q"; "recovery.total.q" ]

let noop_sink_costs_nothing_extra () =
  (* With no registry or recorder of its own, the same run still records
     timelines and reports; the instrumentation has no visible side
     effects. *)
  let _, _, p = instrumented_run ~observed:false in
  check "timeline recorded without obs" true (Protocol.timeline p <> []);
  check "members restored" true
    (List.for_all
       (fun (r : Protocol.member_report) -> r.Protocol.restored <> None)
       (List.filter (fun (r : Protocol.member_report) -> r.Protocol.detected <> None) (Protocol.reports p)))

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter and gauge" `Quick counter_and_gauge;
          Alcotest.test_case "snapshot sorted" `Quick snapshot_sorted_and_rendered;
        ] );
      ( "sharding",
        [
          Alcotest.test_case "4-domain hammer exact totals" `Quick sharded_hammer_exact_totals;
          Alcotest.test_case "gauge merge semantics" `Quick gauge_merge_semantics;
          Alcotest.test_case "kind clash across domains rejected" `Quick
            kind_clash_across_domains_rejected;
          Alcotest.test_case "merge_into accumulates" `Quick merge_into_accumulates;
        ] );
      ( "sketch",
        [
          Alcotest.test_case "quantile error bounds" `Quick sketch_quantile_error_bounds;
          Alcotest.test_case "estimates clamp to extrema" `Quick sketch_estimates_clamped_to_extrema;
          Alcotest.test_case "guards" `Quick sketch_guards;
          Alcotest.test_case "merge matches sequential" `Quick sketch_merge_matches_sequential;
          Alcotest.test_case "summary round-trips quantiles" `Quick
            sketch_summary_roundtrips_quantiles;
        ] );
      ( "series",
        [
          Alcotest.test_case "bucketing and kinds" `Quick series_bucketing_kinds;
          Alcotest.test_case "ring eviction" `Quick series_ring_eviction;
          Alcotest.test_case "merge semantics" `Quick series_merge_semantics;
        ] );
      ( "sharded sketch/series",
        [
          Alcotest.test_case "4-domain hammer equals sequential" `Quick
            sharded_sketch_series_equal_sequential;
          Alcotest.test_case "sketch layout mismatch rejected" `Quick
            sketch_layout_mismatch_across_shards_rejected;
          Alcotest.test_case "series layout mismatch rejected" `Quick
            series_layout_mismatch_across_shards_rejected;
        ] );
      ( "trace",
        [
          Alcotest.test_case "span nesting" `Quick span_nesting_in_ring;
          Alcotest.test_case "ring keeps last" `Quick ring_keeps_last_events;
          Alcotest.test_case "json shape" `Quick json_shape;
          Alcotest.test_case "sinks deterministic" `Quick sinks_deterministic_across_runs;
          Alcotest.test_case "multi-domain stitching monotone per tid" `Quick
            stitched_multi_domain_monotone_per_tid;
          Alcotest.test_case "latency trace holds the whole run" `Quick
            latency_trace_holds_whole_run;
        ] );
      ( "timeline",
        [
          Alcotest.test_case "recorder guards" `Quick timeline_recorder_guards;
          Alcotest.test_case "protocol timeline well-formed" `Quick protocol_emits_well_formed_timeline;
          Alcotest.test_case "no-op path" `Quick noop_sink_costs_nothing_extra;
        ] );
    ]
