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
module Metrics = Smrp_obs.Metrics
module Flight = Smrp_obs.Flight

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

(* Timer-wheel edge cases: the scaled-int clock and hierarchical wheel have
   sharp corners (same-tick rescheduling, the overflow list past the wheel
   horizon, tick quantization) that a float heap never had.  Each gets
   pinned against both queue implementations where it matters. *)

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

let tick_rounding_at_bucket_boundaries () =
  (* Flight records carry engine ticks: both count the same ticks per
     second. *)
  check_int "flight and engine share the tick" (int_of_float Flight.ticks_per_second)
    (Engine.tick_of_time 1.0);
  let time_of_tick tick = float_of_int tick /. Flight.ticks_per_second in
  check_int "tick roundtrip" 12345 (Engine.tick_of_time (time_of_tick 12345));
  (* A delay within half a tick of another lands on the same tick and fires
     FIFO; one just past the boundary keeps its own slot. *)
  let half_tick = 0.5 /. Flight.ticks_per_second in
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
    let d = time_of_tick (30 + i) in
    ignore (Engine.schedule e ~delay:d (fun () -> order := i :: !order))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "boundary window in order" (List.init 100 Fun.id) (List.rev !order)

let queue_depth_counts_live_only () =
  let m = Metrics.create () in
  let e = Engine.create ~metrics:m () in
  let depth () =
    match List.assoc_opt "engine.queue_depth" (Metrics.snapshot m) with
    | Some (Metrics.Gauge_value { last; max }) -> (last, max)
    | _ -> Alcotest.fail "no depth gauge"
  in
  let counter name =
    match List.assoc_opt name (Metrics.snapshot m) with
    | Some (Metrics.Counter_value n) -> n
    | _ -> Alcotest.fail ("no counter " ^ name)
  in
  for _ = 1 to 3 do
    Engine.schedule e ~delay:1.0 (fun () -> ())
  done;
  check_int "three pending" 3 (Engine.pending e);
  check "depth gauge tracks the pending events" true (depth () = (3.0, 3.0));
  Engine.run e;
  check "drained, high-water mark kept" true (depth () = (0.0, 3.0));
  check_int "scheduled" 3 (counter "engine.events_scheduled");
  check_int "fired" 3 (counter "engine.events_fired");
  check_int "fired agrees" 3 (Engine.events_fired e)

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
    for i = 0 to 199 do
      let d = float_of_int (next () mod 10_000) /. 777.0 in
      if i mod 3 = 0 then Engine.schedule_code e ~delay:d ~code ~a:i ~b:(next () mod 97)
      else Engine.schedule e ~delay:d (fun () -> log := (Engine.now e, -1, i) :: !log)
    done;
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
  check "the other link still carries" true (Net.send n ~src:1 ~dst:2 ());
  Engine.run engine;
  check_int "delivered over the live link" 1 !arrivals

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
  (* Failure drops are accounted by where they happen: at send time or in
     flight. *)
  let engine = Engine.create () in
  let g = Fixtures.line 3 in
  let delivered = ref 0 in
  let n = Net.create engine g ~handler:(fun _ ~at:_ ~from:_ ~eid:_ _ -> incr delivered) in
  check "accepted" true (Net.send n ~src:0 ~dst:1 ());
  Engine.schedule engine ~delay:0.5 (fun () -> Net.fail_link n (edge g 0 1));
  Engine.run engine;
  check_int "in-flight failure drop" 1 (frames n "dropped_failure_in_flight");
  check "rejected" false (Net.send n ~src:0 ~dst:1 ());
  check_int "send-time failure drop" 1 (frames n "dropped_failure_at_send");
  check_int "only the accepted frame counted as sent" 1 (frames n "sent");
  check_int "total failure drops" 2
    (frames n "dropped_failure_at_send" + frames n "dropped_failure_in_flight");
  check_int "nothing lost at random" 0 (frames n "lost");
  check_int "nothing delivered" 0 !delivered;
  check_int "delivered counter agrees" 0 (frames n "delivered")

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
  check "data messages flow" true (List.assoc "data" (Protocol.message_breakdown p) > 100)

(* A join made while a link is down selects over the surviving links.  Node
   2's shortest path to the source runs over the failed 1-2 link: a join
   grafted over it would starve 2, and the detour its recovery grafts
   would cross the tree ([Tree.graft] raises out of [Engine.run]). *)
let join_during_failure () =
  List.iter
    (fun strategy ->
      let g = Graph.create 4 in
      ignore (Graph.add_edge g 0 1 1.0);
      let broken = Graph.add_edge g 1 2 1.0 in
      ignore (Graph.add_edge g 0 3 5.0);
      ignore (Graph.add_edge g 3 2 5.0);
      let engine = Engine.create () in
      let config = { Protocol.default_config with Protocol.strategy } in
      let p = Protocol.create ~config engine g ~source:0 in
      Protocol.start p;
      Engine.schedule engine ~delay:0.5 (fun () -> Protocol.join p 1);
      Engine.run ~until:5.0 engine;
      Protocol.inject_link_failure p broken;
      Engine.schedule engine ~delay:5.0 (fun () -> Protocol.join p 2);
      Engine.run ~until:60.0 engine;
      let tree = Protocol.tree p in
      Alcotest.(check (list int)) "2 joins around the failure" [ 2; 3; 0 ] (Tree.path_to_source tree 2);
      let r = List.find (fun r -> r.Protocol.member = 2) (Protocol.reports p) in
      (* Join_Req 2-3-0 and data back each take 10 s: about 300 packets by
         60 s. *)
      check "2 is served" true (r.Protocol.data_received > 250);
      match Tree.validate tree with Ok () -> () | Error e -> Alcotest.fail e)
    [ Protocol.Local; Protocol.Global ];
  (* On a line, 1-2 is a bridge: a joiner the failure cuts off stays a
     member without a path in every join mode, disrupted and never
     restored, and the run goes on. *)
  List.iter
    (fun config ->
      let g = Fixtures.line 3 in
      let engine = Engine.create () in
      let p = Protocol.create ~config engine g ~source:0 in
      Protocol.start p;
      Engine.schedule engine ~delay:0.5 (fun () -> Protocol.join p 1);
      Engine.run ~until:5.0 engine;
      Protocol.inject_link_failure p (edge g 1 2);
      Engine.schedule engine ~delay:5.0 (fun () -> Protocol.join p 2);
      Engine.run ~until:60.0 engine;
      let report v = List.find (fun r -> r.Protocol.member = v) (Protocol.reports p) in
      check "2 is off the tree" false (Tree.is_on_tree (Protocol.tree p) 2);
      check "2 is reported disrupted" true ((report 2).Protocol.detected <> None);
      check "and never restored" true ((report 2).Protocol.restored = None);
      check_int "2 got no data" 0 (report 2).Protocol.data_received;
      check "1 is still served" true ((report 1).Protocol.data_received > 250))
    [
      Protocol.default_config;
      { Protocol.default_config with Protocol.strategy = Protocol.Global };
      { Protocol.default_config with Protocol.join_mode = Protocol.Query_scheme };
    ]

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

let query_forwarding_ignores_failure () =
  (* Queries follow the unicast routes of the whole graph, failure or not.
     3's only neighbour is 1, whose route to the source is 1-2-0 (delay 2,
     against 2.5 on the direct link); with 2-0 failed, 2 forwards the query
     onto the dead link and nobody answers, so three queries are sent and
     3 joins by the full-knowledge fallback.  Routed by the post-failure
     distances, 1 would send it straight to the source and get an
     answer. *)
  let g = Graph.create 4 in
  ignore (Graph.add_edge g 3 1 1.0);
  ignore (Graph.add_edge g 1 2 1.0);
  let broken = Graph.add_edge g 2 0 1.0 in
  ignore (Graph.add_edge g 1 0 2.5);
  let engine = Engine.create () in
  let config = { Protocol.default_config with Protocol.join_mode = Protocol.Query_scheme } in
  let p = Protocol.create ~config engine g ~source:0 in
  Protocol.start p;
  Engine.run ~until:5.0 engine;
  Protocol.inject_link_failure p broken;
  ignore (Engine.schedule engine ~delay:1.0 (fun () -> Protocol.join p 3));
  Engine.run ~until:30.0 engine;
  check_int "queries sent, none answered" 3 (List.assoc "query" (Protocol.message_breakdown p));
  Alcotest.(check (list int)) "3 joins around the failure" [ 3; 1; 0 ]
    (Tree.path_to_source (Protocol.tree p) 3);
  let r = List.find (fun r -> r.Protocol.member = 3) (Protocol.reports p) in
  check "3 is served" true (r.Protocol.data_received > 100)

let query_scheme_falls_back () =
  (* A joiner whose queries die (lossless here, but the only neighbour IS
     the source, which answers immediately) still ends up attached. *)
  let g = Fixtures.line 3 in
  let engine = Engine.create () in
  let config = { Protocol.default_config with Protocol.join_mode = Protocol.Query_scheme } in
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
          Alcotest.test_case "nested scheduling" `Quick nested_scheduling;
          Alcotest.test_case "run until" `Quick run_until_stops;
          Alcotest.test_case "rejects past/negative" `Quick rejects_past_and_negative;
          Alcotest.test_case "rejects non-finite times" `Quick rejects_non_finite_times;
          Alcotest.test_case "zero-delay self-reschedule" `Quick zero_delay_self_reschedule;
          Alcotest.test_case "far-future overflow cascade" `Quick far_future_overflow_cascade;
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
          Alcotest.test_case "non-adjacent rejected" `Quick non_adjacent_send_rejected;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "data flows to member" `Quick data_flows_to_member;
          Alcotest.test_case "leave stops data" `Quick leave_stops_data;
          Alcotest.test_case "local recovery beats global" `Quick local_recovery_beats_global;
          Alcotest.test_case "messages counted" `Quick control_and_data_counted;
          Alcotest.test_case "join errors" `Quick join_errors;
          Alcotest.test_case "join during a link failure" `Quick join_during_failure;
          Alcotest.test_case "query-scheme join" `Quick query_scheme_join_flows;
          Alcotest.test_case "query forwarding ignores the failure" `Quick
            query_forwarding_ignores_failure;
          Alcotest.test_case "query-scheme fallback" `Quick query_scheme_falls_back;
          Alcotest.test_case "protocol-level reshaping" `Quick reshaping_switches_at_protocol_level;
          Alcotest.test_case "simulation deterministic" `Quick simulation_deterministic;
          qcheck_case qcheck_oracle_joins_match_build;
        ] );
    ]
