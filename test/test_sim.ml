(* Discrete-event engine, network layer and protocol automata. *)

module Graph = Smrp_graph.Graph
module Fixtures = Smrp_topology.Fixtures
module Tree = Smrp_core.Tree
module Engine = Smrp_sim.Engine
module Net = Smrp_sim.Net
module Protocol = Smrp_sim.Protocol
module Rng = Smrp_rng.Rng
module Waxman = Smrp_topology.Waxman
module Smrp = Smrp_core.Smrp

(* Property tests run with a pinned PRNG state so failures are
   reproducible run over run. *)
let qcheck_case t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 424242 |]) t

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

let edge g u v = (Option.get (Graph.edge_between g u v)).Graph.id
let frames n outcome = List.assoc outcome (Net.counters n)

(* -- Engine ------------------------------------------------------------ *)

let events_fire_in_time_order () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule e ~delay:3.0 (fun () -> log := 3 :: !log));
  ignore (Engine.schedule e ~delay:1.0 (fun () -> log := 1 :: !log));
  ignore (Engine.schedule e ~delay:2.0 (fun () -> log := 2 :: !log));
  Engine.run e;
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.rev !log);
  check_float "clock at last event" 3.0 (Engine.now e)

let equal_times_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  List.iter (fun i -> ignore (Engine.schedule e ~delay:1.0 (fun () -> log := i :: !log))) [ 1; 2; 3 ];
  Engine.run e;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.rev !log)

let cancel_prevents_firing () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule e ~delay:1.0 (fun () -> fired := true) in
  Engine.cancel e h;
  Engine.run e;
  check "cancelled" false !fired

let nested_scheduling () =
  let e = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule e ~delay:1.0 (fun () ->
         log := `A :: !log;
         ignore (Engine.schedule e ~delay:0.5 (fun () -> log := `B :: !log))));
  Engine.run e;
  check_int "two events" 2 (List.length !log);
  check_float "clock" 1.5 (Engine.now e)

let run_until_stops () =
  let e = Engine.create () in
  let count = ref 0 in
  ignore (Engine.every e ~period:1.0 (fun () -> incr count));
  Engine.run ~until:5.5 e;
  check_int "five periods" 5 !count;
  check_float "clock clamped" 5.5 (Engine.now e)

let every_cancellable () =
  let e = Engine.create () in
  let count = ref 0 in
  let h = Engine.every e ~period:1.0 (fun () -> incr count) in
  ignore (Engine.schedule e ~delay:3.5 (fun () -> Engine.cancel e h));
  Engine.run ~until:10.0 e;
  check_int "stopped after cancel" 3 !count

let rejects_past_and_negative () =
  let e = Engine.create () in
  Alcotest.check_raises "negative delay" (Invalid_argument "Engine.schedule: negative delay")
    (fun () -> ignore (Engine.schedule e ~delay:(-1.0) (fun () -> ())));
  ignore (Engine.schedule e ~delay:1.0 (fun () -> ()));
  Engine.run e;
  Alcotest.check_raises "past time" (Invalid_argument "Engine.schedule_at: time in the past")
    (fun () -> ignore (Engine.schedule_at e ~time:0.5 (fun () -> ())))

(* NaN slips past [< 0.0] and [<= 0.0] guards, and NaN, infinity and huge
   times all used to quantize to tick 0: such an event fired at once, ahead
   of everything already due, and a NaN period re-armed at tick 0 forever.
   A NaN [until] ran nothing and left the clock at NaN. *)
let rejects_non_finite_times () =
  let e = Engine.create () in
  let fired = ref [] in
  ignore (Engine.schedule e ~delay:5.0 (fun () -> ()));
  Engine.run e;
  ignore (Engine.schedule e ~delay:0.5 (fun () -> fired := `Due :: !fired));
  let code = Engine.register e (fun _ _ -> fired := `Code :: !fired) in
  let raises name msg f = Alcotest.check_raises name (Invalid_argument msg) (fun () -> ignore (f ())) in
  List.iter
    (fun d ->
      raises "schedule" "Engine.schedule: non-finite delay" (fun () ->
          Engine.schedule e ~delay:d (fun () -> fired := `Bad :: !fired));
      raises "schedule_code" "Engine.schedule_code: non-finite delay" (fun () ->
          Engine.schedule_code e ~delay:d ~code ~a:0 ~b:0);
      raises "every" "Engine.every: non-finite period" (fun () ->
          Engine.every e ~period:d (fun () -> fired := `Bad :: !fired)))
    [ nan; infinity ];
  List.iter
    (fun time ->
      raises "schedule_at" "Engine.schedule_at: non-finite time" (fun () ->
          Engine.schedule_at e ~time (fun () -> fired := `Bad :: !fired)))
    [ nan; infinity ];
  raises "far delay" "Engine.schedule_at: time beyond the clock's range" (fun () ->
      Engine.schedule e ~delay:1e300 (fun () -> fired := `Bad :: !fired));
  raises "far code delay" "Engine.schedule_code: time beyond the clock's range" (fun () ->
      Engine.schedule_code e ~delay:1e300 ~code ~a:0 ~b:0);
  raises "run until NaN" "Engine.run: until is not a number" (fun () -> Engine.run ~until:nan e);
  check_int "only the valid event pending" 1 (Engine.pending e);
  Engine.run ~until:10.0 e;
  check "nothing rejected fired" true (!fired = [ `Due ])

let every_with_jitter () =
  let e = Engine.create () in
  let times = ref [] in
  let jitter =
    let flip = ref true in
    fun () ->
      flip := not !flip;
      if !flip then 0.25 else -0.25
  in
  ignore (Engine.every e ~period:1.0 ~jitter (fun () -> times := Engine.now e :: !times));
  Engine.run ~until:4.0 e;
  check "fired several times" true (List.length !times >= 3);
  (* Jittered periods stay within [0.75, 1.25] of each other. *)
  let rec gaps = function
    | a :: (b :: _ as tl) -> (a -. b) :: gaps tl
    | _ -> []
  in
  List.iter (fun g -> check "gap within jitter band" true (g >= 0.74 && g <= 1.26)) (gaps !times)

(* Timer-wheel edge cases: the scaled-int clock and hierarchical wheel have
   sharp corners (same-tick rescheduling, the overflow list past the wheel
   horizon, handle recycling, tick quantization) that a float heap never
   had.  Each gets pinned against both queue implementations where it
   matters. *)

let zero_delay_self_reschedule () =
  let e = Engine.create () in
  let count = ref 0 in
  let other = ref 0 in
  let rec tick () =
    incr count;
    if !count < 5 then ignore (Engine.schedule e ~delay:0.0 tick)
  in
  ignore (Engine.schedule e ~delay:1.0 tick);
  (* A same-tick neighbour scheduled before the chain starts: FIFO puts it
     between the first firing and the zero-delay follow-ups. *)
  ignore (Engine.schedule e ~delay:1.0 (fun () -> other := !count));
  Engine.run e;
  check_int "chain ran to completion" 5 !count;
  check_int "neighbour fired after the first link only" 1 !other;
  check_float "clock never advanced past the tick" 1.0 (Engine.now e)

let far_future_overflow_cascade () =
  (* The wheel horizon is 2^33 ticks (~859 s): events beyond it park in
     the overflow list and must cascade back in, in order, mixed with near
     events scheduled later. *)
  List.iter
    (fun impl ->
      let e = Engine.create ~impl () in
      let log = ref [] in
      let at d tag = ignore (Engine.schedule e ~delay:d (fun () -> log := tag :: !log)) in
      at 5000.0 `Far2;
      at 9000.0 `Far3;
      at 4000.0 `Far1;
      at 1.0 `Near;
      ignore
        (Engine.schedule e ~delay:2.0 (fun () ->
             (* scheduled mid-run, still lands between Near and Far1 *)
             at 10.0 `Mid));
      Engine.run e;
      check "overflow ordering" true (List.rev !log = [ `Near; `Mid; `Far1; `Far2; `Far3 ]);
      check_float "clock at last event" 9000.0 (Engine.now e))
    [ Engine.Wheel; Engine.Reference ]

let cancel_of_recycled_handle_is_noop () =
  let e = Engine.create () in
  let fired = ref [] in
  let h1 = Engine.schedule e ~delay:1.0 (fun () -> fired := 1 :: !fired) in
  Engine.run e;
  (* h1's pool slot is free now; the next schedule recycles it with a new
     generation stamp. *)
  ignore (Engine.schedule e ~delay:1.0 (fun () -> fired := 2 :: !fired));
  Engine.cancel e h1;
  Engine.cancel e h1;
  Engine.run e;
  Alcotest.(check (list int)) "stale cancel left the recycled event alone" [ 1; 2 ]
    (List.rev !fired)

let tick_rounding_at_bucket_boundaries () =
  check_float "tick roundtrip" 1.0 (Engine.time_of_tick (Engine.tick_of_time 1.0));
  (* A delay within half a tick of another lands on the same tick and fires
     FIFO; one just past the boundary keeps its own slot. *)
  let half_tick = 0.5 /. Engine.ticks_per_second in
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule e ~delay:(1.0 +. (0.8 *. half_tick)) (fun () -> log := `Same1 :: !log));
  ignore (Engine.schedule e ~delay:1.0 (fun () -> log := `Same2 :: !log));
  ignore (Engine.schedule e ~delay:(1.0 +. (3.0 *. half_tick)) (fun () -> log := `Later :: !log));
  Engine.run e;
  check "sub-tick neighbours collapse and stay FIFO" true
    (List.rev !log = [ `Same1; `Same2; `Later ]);
  (* Wheel-slot boundaries (multiples of 32 ticks from the hand) must not
     reorder: exercise a window straddling several level-0 slot edges. *)
  let e = Engine.create () in
  let order = ref [] in
  for i = 0 to 99 do
    let d = Engine.time_of_tick (30 + i) in
    ignore (Engine.schedule e ~delay:d (fun () -> order := i :: !order))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "boundary window in order" (List.init 100 Fun.id) (List.rev !order)

let queue_depth_counts_live_only () =
  let module Metrics = Smrp_obs.Metrics in
  let m = Metrics.create () in
  let e = Engine.create ~metrics:m () in
  let hs = List.init 3 (fun _ -> Engine.schedule e ~delay:1.0 (fun () -> ())) in
  check_int "three live" 3 (Engine.pending e);
  Engine.cancel e (List.hd hs);
  check_int "two live after cancel" 2 (Engine.pending e);
  check_float "depth gauge tracks live events, not queue entries" 2.0
    (Metrics.Gauge.value (Metrics.gauge m "engine.queue_depth"));
  check_int "pending-cancel counter" 1
    (Metrics.Counter.value (Metrics.counter m "engine.events_cancelled_pending"));
  Engine.run e;
  check_float "drained" 0.0 (Metrics.Gauge.value (Metrics.gauge m "engine.queue_depth"));
  check_int "lazy delete surfaced on pop" 1
    (Metrics.Counter.value (Metrics.counter m "engine.events_cancelled"));
  check_int "fired excludes the cancelled one" 2 (Engine.events_fired e)

let wheel_matches_reference_engine () =
  (* Identical pseudo-random workloads on both queue implementations must
     produce identical firing sequences (fingerprint covers tick + code). *)
  let run impl =
    let e = Engine.create ~impl () in
    let log = ref [] in
    let code = Engine.register e (fun a b -> log := (Engine.now e, a, b) :: !log) in
    let seed = ref 12345 in
    let next () =
      seed := ((!seed * 1103515245) + 12345) land 0x3FFFFFFF;
      !seed
    in
    let cancels = ref [] in
    for i = 0 to 199 do
      let d = float_of_int (next () mod 10_000) /. 777.0 in
      if i mod 3 = 0 then
        Engine.schedule_code e ~delay:d ~code ~a:i ~b:(next () mod 97)
      else begin
        let h = Engine.schedule e ~delay:d (fun () -> log := (Engine.now e, -1, i) :: !log) in
        if i mod 5 = 1 then cancels := h :: !cancels
      end
    done;
    List.iter (Engine.cancel e) !cancels;
    Engine.run e;
    (Engine.fingerprint e, Engine.events_fired e, List.rev !log)
  in
  let fw, nw, lw = run Engine.Wheel in
  let fr, nr, lr = run Engine.Reference in
  check_int "same event count" nr nw;
  check "same fingerprint" true (fw = fr);
  check "same firing log" true (lw = lr)

(* -- Net --------------------------------------------------------------- *)

let frames_arrive_after_link_delay () =
  let engine = Engine.create () in
  let g = Fixtures.line 3 in
  let arrivals = ref [] in
  let net = ref None in
  let n =
    Net.create engine g ~handler:(fun _ ~at ~from ~eid:_ msg ->
        arrivals := (Engine.now engine, at, from, msg) :: !arrivals)
  in
  net := Some n;
  check "accepted" true (Net.send n ~src:0 ~dst:1 "hello");
  Engine.run engine;
  (match !arrivals with
  | [ (t, at, from, "hello") ] ->
      check_float "propagation delay" 1.0 t;
      check_int "delivered to" 1 at;
      check_int "from" 0 from
  | _ -> Alcotest.fail "expected one delivery");
  check_int "frames counted" 1 (frames n "sent")

let failed_link_drops () =
  let engine = Engine.create () in
  let g = Fixtures.line 3 in
  let arrivals = ref 0 in
  let n = Net.create engine g ~handler:(fun _ ~at:_ ~from:_ ~eid:_ _ -> incr arrivals) in
  Net.fail_link n (edge g 0 1);
  check "rejected at send" false (Net.send n ~src:0 ~dst:1 ());
  Engine.run engine;
  check_int "nothing delivered" 0 !arrivals;
  Net.restore_link n (edge g 0 1);
  check "accepted after restore" true (Net.send n ~src:0 ~dst:1 ())

let in_flight_frames_die_with_the_link () =
  let engine = Engine.create () in
  let g = Fixtures.line 3 in
  let arrivals = ref 0 in
  let n = Net.create engine g ~handler:(fun _ ~at:_ ~from:_ ~eid:_ _ -> incr arrivals) in
  check "sent" true (Net.send n ~src:0 ~dst:1 ());
  (* The link dies while the frame is in flight. *)
  ignore (Engine.schedule engine ~delay:0.5 (fun () -> Net.fail_link n (edge g 0 1)));
  Engine.run engine;
  check_int "dropped at delivery" 0 !arrivals

let failure_drops_counted_separately () =
  (* Failure drops (send-time and in-flight) are accounted apart from
     Bernoulli loss. *)
  let engine = Engine.create () in
  let g = Fixtures.line 3 in
  let delivered = ref 0 in
  let n = Net.create engine g ~handler:(fun _ ~at:_ ~from:_ ~eid:_ _ -> incr delivered) in
  Net.fail_link n (edge g 0 1);
  check "rejected" false (Net.send n ~src:0 ~dst:1 ());
  check_int "send-time failure drop" 1 (frames n "dropped_failure_at_send");
  check_int "not counted as sent" 0 (frames n "sent");
  Net.restore_link n (edge g 0 1);
  check "accepted" true (Net.send n ~src:0 ~dst:1 ());
  ignore (Engine.schedule engine ~delay:0.5 (fun () -> Net.fail_link n (edge g 0 1)));
  Engine.run engine;
  check_int "in-flight failure drop" 1 (frames n "dropped_failure_in_flight");
  check_int "total failure drops" 2
    (frames n "dropped_failure_at_send" + frames n "dropped_failure_in_flight");
  check_int "bernoulli loss untouched" 0 (frames n "lost");
  check_int "nothing delivered" 0 !delivered;
  check_int "delivered counter agrees" 0 (frames n "delivered")

let failed_node_blocks () =
  let engine = Engine.create () in
  let g = Fixtures.line 3 in
  let n = Net.create engine g ~handler:(fun _ ~at:_ ~from:_ ~eid:_ _ -> ()) in
  Net.fail_node n 1;
  check "to dead node" false (Net.send n ~src:0 ~dst:1 ());
  check "node state" false (Net.node_up n 1);
  match Net.as_failure n with
  | Some (Smrp_core.Failure.Node 1) -> ()
  | _ -> Alcotest.fail "expected node failure"

let non_adjacent_send_rejected () =
  let engine = Engine.create () in
  let g = Fixtures.line 3 in
  let n = Net.create engine g ~handler:(fun _ ~at:_ ~from:_ ~eid:_ _ -> ()) in
  Alcotest.check_raises "not adjacent" (Invalid_argument "Net.send: nodes not adjacent") (fun () ->
      ignore (Net.send n ~src:0 ~dst:2 ()))

(* -- Protocol ---------------------------------------------------------- *)

let data_flows_to_member () =
  let engine = Engine.create () in
  let g = Fixtures.line 3 in
  let p = Protocol.create engine g ~source:0 in
  Protocol.start p;
  ignore (Engine.schedule engine ~delay:0.5 (fun () -> Protocol.join p 2));
  Engine.run ~until:10.0 engine;
  let report =
    List.find (fun r -> r.Protocol.member = 2) (Protocol.reports p)
  in
  check "data received" true (report.Protocol.data_received > 50);
  check "never disrupted" true (report.Protocol.detected = None);
  check "tree matches" true (Tree.is_member (Protocol.tree p) 2)

let leave_stops_data () =
  let engine = Engine.create () in
  let g = Fixtures.line 3 in
  let p = Protocol.create engine g ~source:0 in
  Protocol.start p;
  ignore (Engine.schedule engine ~delay:0.5 (fun () -> Protocol.join p 2));
  ignore (Engine.schedule engine ~delay:5.0 (fun () -> Protocol.leave p 2));
  Engine.run ~until:10.0 engine;
  check "left the control tree" false (Tree.is_member (Protocol.tree p) 2)

let local_recovery_beats_global () =
  let engine_for strategy =
    let engine = Engine.create () in
    let g = Fixtures.ring 5 in
    let config = { Protocol.default_config with Protocol.strategy; ospf_convergence = 5.0 } in
    let p = Protocol.create ~config engine g ~source:0 in
    Protocol.start p;
    ignore (Engine.schedule engine ~delay:0.5 (fun () -> Protocol.join p 2));
    Engine.run ~until:20.0 engine;
    (* Fail the 0-1 link: member 2 must re-join around the ring. *)
    Protocol.inject_link_failure p (edge g 0 1);
    Engine.run ~until:60.0 engine;
    List.find (fun r -> r.Protocol.member = 2) (Protocol.reports p)
  in
  let local = engine_for Protocol.Local in
  let global = engine_for Protocol.Global in
  let restored r =
    match r.Protocol.restored with Some t -> t | None -> Alcotest.fail "not restored"
  in
  check "both restore" true (local.Protocol.restored <> None && global.Protocol.restored <> None);
  check "local is faster" true (restored local < restored global);
  check "global pays the reconvergence wait" true (restored global >= 5.0)

let control_and_data_counted () =
  let engine = Engine.create () in
  let g = Fixtures.line 3 in
  let p = Protocol.create engine g ~source:0 in
  Protocol.start p;
  ignore (Engine.schedule engine ~delay:0.5 (fun () -> Protocol.join p 2));
  Engine.run ~until:10.0 engine;
  check "control messages flow" true (Protocol.control_messages p > 0);
  check "data messages flow" true (Protocol.data_messages p > 100)

let lossy_links_counted () =
  let engine = Engine.create () in
  let g = Fixtures.line 2 in
  let received = ref 0 in
  let n = Net.create engine g ~handler:(fun _ ~at:_ ~from:_ ~eid:_ _ -> incr received) in
  Net.set_loss n ~rng:(Smrp_rng.Rng.create 5) ~rate:0.3;
  for _ = 1 to 1000 do
    ignore (Net.send n ~src:0 ~dst:1 ())
  done;
  Engine.run engine;
  check_int "sent counts all" 1000 (frames n "sent");
  check_int "lost + received = sent" 1000 (frames n "lost" + !received);
  check "roughly the configured rate" true (frames n "lost" > 230 && frames n "lost" < 370)

let loss_rate_guard () =
  (* NaN fails every comparison, so a guard written as "rate < 0 || rate >= 1"
     lets it through, and a NaN rate then drops nothing. *)
  let n = Net.create (Engine.create ()) (Fixtures.line 2) ~handler:(fun _ ~at:_ ~from:_ ~eid:_ () -> ()) in
  List.iter
    (fun rate ->
      Alcotest.check_raises (Printf.sprintf "rate %g" rate)
        (Invalid_argument "Net.set_loss: rate out of [0, 1)") (fun () ->
          Net.set_loss n ~rng:(Smrp_rng.Rng.create 1) ~rate))
    [ Float.nan; -0.1; 1.0; Float.infinity ]

let soft_state_survives_loss () =
  (* 10% loss on every frame: refreshes and data redundancy keep the member
     served, and the retry logic completes recovery despite lost Join_reqs. *)
  let engine = Engine.create () in
  let g = Fixtures.ring 5 in
  let p = Protocol.create engine g ~source:0 in
  Net.set_loss (Protocol.net p) ~rng:(Smrp_rng.Rng.create 11) ~rate:0.1;
  Protocol.start p;
  ignore (Engine.schedule engine ~delay:0.5 (fun () -> Protocol.join p 2));
  Engine.run ~until:30.0 engine;
  let report = List.find (fun r -> r.Protocol.member = 2) (Protocol.reports p) in
  (* ~295 packets offered over 29.5s at 10/s through 2 lossy hops (~19%
     frame loss), plus up to one 5 s dark window if the initial Join_req is
     lost before a periodic join refresh heals it: at least half must
     arrive. *)
  check "most data arrives despite loss" true (report.Protocol.data_received > 120);
  Protocol.inject_link_failure p (edge g 0 1);
  Engine.run ~until:90.0 engine;
  let report = List.find (fun r -> r.Protocol.member = 2) (Protocol.reports p) in
  check "still recovers under loss" true (report.Protocol.restored <> None)

let reshaping_switches_at_protocol_level () =
  (* The Figure 4/5 walkthrough end-to-end in the simulator: E, G, F join;
     the Condition-II timer reshapes E onto E-C-A-S make-before-break, and
     E keeps receiving data throughout. *)
  let f = Smrp_topology.Fixtures.fig4 () in
  let g = f.Smrp_topology.Fixtures.graph in
  let engine = Engine.create () in
  let config = { Protocol.default_config with Protocol.reshape_period = Some 10.0 } in
  let p = Protocol.create ~config engine g ~source:f.Smrp_topology.Fixtures.s in
  Protocol.start p;
  ignore (Engine.schedule engine ~delay:0.5 (fun () -> Protocol.join p f.Smrp_topology.Fixtures.e));
  ignore (Engine.schedule engine ~delay:1.5 (fun () -> Protocol.join p f.Smrp_topology.Fixtures.g));
  ignore (Engine.schedule engine ~delay:2.5 (fun () -> Protocol.join p f.Smrp_topology.Fixtures.f));
  Engine.run ~until:60.0 engine;
  let tree = Protocol.tree p in
  Alcotest.(check (list int)) "E switched to the C path"
    [
      f.Smrp_topology.Fixtures.e;
      f.Smrp_topology.Fixtures.c;
      f.Smrp_topology.Fixtures.a;
      f.Smrp_topology.Fixtures.s;
    ]
    (Tree.path_to_source tree f.Smrp_topology.Fixtures.e);
  let r =
    List.find (fun r -> r.Protocol.member = f.Smrp_topology.Fixtures.e) (Protocol.reports p)
  in
  check "E never starved during the switch" true (r.Protocol.detected = None);
  (* ~595 packets offered; E's first packet needs ~6.6 s of propagation
     (fig4 link delays are ~1 s), and the mid-run switch may cost a moment. *)
  check "E kept receiving" true (r.Protocol.data_received > 510);
  match Tree.validate tree with Ok () -> () | Error e -> Alcotest.fail e

let query_scheme_join_flows () =
  (* Query-scheme joins on the Figure 1 topology: D's neighbours relay the
     query to the tree, D picks among the answers and data flows. *)
  let f = Smrp_topology.Fixtures.fig1 () in
  let g = f.Smrp_topology.Fixtures.graph in
  let engine = Engine.create () in
  let config = { Protocol.default_config with Protocol.join_mode = Protocol.Query_scheme } in
  let p = Protocol.create ~config engine g ~source:f.Smrp_topology.Fixtures.s in
  Protocol.start p;
  ignore (Engine.schedule engine ~delay:0.5 (fun () -> Protocol.join p f.Smrp_topology.Fixtures.c));
  ignore (Engine.schedule engine ~delay:5.0 (fun () -> Protocol.join p f.Smrp_topology.Fixtures.d));
  Engine.run ~until:30.0 engine;
  let queries = List.assoc "query" (Protocol.message_breakdown p) in
  check "queries were exchanged" true (queries > 0);
  List.iter
    (fun m ->
      let r = List.find (fun r -> r.Protocol.member = m) (Protocol.reports p) in
      check "member receives data" true (r.Protocol.data_received > 100))
    [ f.Smrp_topology.Fixtures.c; f.Smrp_topology.Fixtures.d ];
  match Tree.validate (Protocol.tree p) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let query_scheme_falls_back () =
  (* A joiner whose queries die (lossless here, but the only neighbour IS
     the source, which answers immediately) still ends up attached. *)
  let g = Fixtures.line 3 in
  let engine = Engine.create () in
  let config =
    { Protocol.default_config with Protocol.join_mode = Protocol.Query_scheme; query_timeout = 0.5 }
  in
  let p = Protocol.create ~config engine g ~source:0 in
  Protocol.start p;
  ignore (Engine.schedule engine ~delay:0.5 (fun () -> Protocol.join p 2));
  Engine.run ~until:20.0 engine;
  let r = List.find (fun r -> r.Protocol.member = 2) (Protocol.reports p) in
  check "attached and served" true (r.Protocol.data_received > 100)

let simulation_deterministic () =
  (* Two identical runs must agree event for event. *)
  let run () =
    let engine = Engine.create () in
    let g = Fixtures.ring 6 in
    let p = Protocol.create engine g ~source:0 in
    Protocol.start p;
    ignore (Engine.schedule engine ~delay:0.5 (fun () -> Protocol.join p 3));
    ignore (Engine.schedule engine ~delay:1.5 (fun () -> Protocol.join p 4));
    Engine.run ~until:20.0 engine;
    Protocol.inject_link_failure p (edge g 0 1);
    Engine.run ~until:60.0 engine;
    ( Protocol.message_breakdown p,
      List.map
        (fun (r : Protocol.member_report) -> (r.Protocol.member, r.Protocol.data_received, r.Protocol.restored))
        (Protocol.reports p) )
  in
  check "identical runs" true (run () = run ())

let join_errors () =
  let engine = Engine.create () in
  let g = Fixtures.line 3 in
  let p = Protocol.create engine g ~source:0 in
  Alcotest.check_raises "source join" (Invalid_argument "Protocol.join: the source cannot join")
    (fun () -> Protocol.join p 0);
  Protocol.join p 2;
  Alcotest.check_raises "double join" (Invalid_argument "Protocol.join: already a member")
    (fun () -> Protocol.join p 2)

(* The packet-level joins make the core's join decision: members joining
   one second apart through an oracle-mode protocol graft exactly the edges
   [Smrp.build] grafts for the same members in the same order. *)
let qcheck_oracle_joins_match_build =
  QCheck.Test.make ~name:"packet-level oracle joins graft what Smrp.build grafts" ~count:100
    QCheck.small_int (fun seed ->
      let rng = Rng.create seed in
      let n = 20 + Rng.int rng 60 in
      let link_delay = if seed mod 2 = 0 then `Euclidean else `Unit in
      let g = (Waxman.generate ~link_delay rng ~n ~alpha:0.2 ~beta:0.2).Waxman.graph in
      let k = 2 + Rng.int rng (min 20 (n - 2)) in
      let sample = Rng.sample_without_replacement rng (k + 1) n in
      let source = List.hd sample and members = List.tl sample in
      let d_thresh = Rng.pick rng [| 0.0; 0.3; 1.0 |] in
      let engine = Engine.create () in
      let config = { Protocol.default_config with Protocol.d_thresh } in
      let p = Protocol.create ~config engine g ~source in
      Protocol.start p;
      List.iteri
        (fun i m ->
          let join () = Protocol.join p m in
          ignore (Engine.schedule engine ~delay:(float_of_int (i + 1)) join))
        members;
      Engine.run ~until:(float_of_int (k + 5)) engine;
      let edges t = List.sort compare (Tree.tree_edges t) in
      edges (Protocol.tree p) = edges (Smrp.build ~d_thresh g ~source ~members))

let () =
  Alcotest.run "sim"
    [
      ( "engine",
        [
          Alcotest.test_case "time order" `Quick events_fire_in_time_order;
          Alcotest.test_case "fifo on ties" `Quick equal_times_fifo;
          Alcotest.test_case "cancel" `Quick cancel_prevents_firing;
          Alcotest.test_case "nested scheduling" `Quick nested_scheduling;
          Alcotest.test_case "run until" `Quick run_until_stops;
          Alcotest.test_case "every cancellable" `Quick every_cancellable;
          Alcotest.test_case "rejects past/negative" `Quick rejects_past_and_negative;
          Alcotest.test_case "rejects non-finite times" `Quick rejects_non_finite_times;
          Alcotest.test_case "every with jitter" `Quick every_with_jitter;
          Alcotest.test_case "zero-delay self-reschedule" `Quick zero_delay_self_reschedule;
          Alcotest.test_case "far-future overflow cascade" `Quick far_future_overflow_cascade;
          Alcotest.test_case "recycled handle cancel" `Quick cancel_of_recycled_handle_is_noop;
          Alcotest.test_case "tick rounding at bucket boundaries" `Quick
            tick_rounding_at_bucket_boundaries;
          Alcotest.test_case "queue depth counts live only" `Quick queue_depth_counts_live_only;
          Alcotest.test_case "wheel matches reference" `Quick wheel_matches_reference_engine;
        ] );
      ( "net",
        [
          Alcotest.test_case "frames arrive after delay" `Quick frames_arrive_after_link_delay;
          Alcotest.test_case "failed link drops" `Quick failed_link_drops;
          Alcotest.test_case "in-flight frames die" `Quick in_flight_frames_die_with_the_link;
          Alcotest.test_case "failure drops counted separately" `Quick failure_drops_counted_separately;
          Alcotest.test_case "failed node blocks" `Quick failed_node_blocks;
          Alcotest.test_case "non-adjacent rejected" `Quick non_adjacent_send_rejected;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "data flows to member" `Quick data_flows_to_member;
          Alcotest.test_case "leave stops data" `Quick leave_stops_data;
          Alcotest.test_case "local recovery beats global" `Quick local_recovery_beats_global;
          Alcotest.test_case "messages counted" `Quick control_and_data_counted;
          Alcotest.test_case "join errors" `Quick join_errors;
          Alcotest.test_case "lossy links counted" `Quick lossy_links_counted;
          Alcotest.test_case "loss rate outside [0, 1) rejected" `Quick loss_rate_guard;
          Alcotest.test_case "soft state survives loss" `Quick soft_state_survives_loss;
          Alcotest.test_case "query-scheme join" `Quick query_scheme_join_flows;
          Alcotest.test_case "query-scheme fallback" `Quick query_scheme_falls_back;
          Alcotest.test_case "protocol-level reshaping" `Quick reshaping_switches_at_protocol_level;
          Alcotest.test_case "simulation deterministic" `Quick simulation_deterministic;
          qcheck_case qcheck_oracle_joins_match_build;
        ] );
    ]
