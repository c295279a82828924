module Metrics = Smrp_obs.Metrics
module Flight = Smrp_obs.Flight

(* Engine v2: the facade owns the clock, the pooled event table and all
   instrumentation; the queue behind it is a pure (tick, seq) -> eid
   priority structure with two interchangeable implementations.  Sharing
   everything but the queue is what makes the wheel-vs-reference
   differential trivial: identical pop order implies identical behavior. *)

type impl = Wheel | Reference

type queue = Q_wheel of Engine_wheel.t | Q_ref of Engine_reference.t

type meters = {
  scheduled : Metrics.Counter.t;
  fired : Metrics.Counter.t;
  depth : Metrics.Gauge.t; (* pending events *)
}

type t = {
  mutable clock : float;
  mutable seq : int; (* global scheduling sequence: FIFO ties *)
  queue : queue;
  (* event pool (struct of arrays; free list threaded through ev_next) *)
  mutable ev_tick : int array;
  mutable ev_code : int array;
  mutable ev_a : int array;
  mutable ev_b : int array;
  mutable ev_next : int array;
  mutable ev_free : int;
  mutable n_pending : int; (* scheduled, not yet fired *)
  (* closure table for code-0 (closure-dispatch) events *)
  mutable cls : (unit -> unit) array;
  mutable cls_next : int array;
  mutable cls_free : int;
  (* registered int-code handlers; code 0 is the closure dispatcher *)
  mutable handlers : (int -> int -> unit) array;
  mutable n_handlers : int;
  mutable n_fired : int;
  mutable fp : int;
  metrics : Metrics.t option;
  meters : meters option;
  flight : Flight.recorder; (* always-on ring; Flight.null to disable *)
}

let ticks_per_second = 1e7
let[@inline] tick_of_time time = int_of_float (Float.round (time *. ticks_per_second))
let[@inline] time_of_tick tick = float_of_int tick /. ticks_per_second

(* Latest schedulable time (~1.2e11 s): its tick stays far below the queue's
   [max_int] "empty" answer, and [int_of_float] stays in range up to it. *)
let max_time = time_of_tick (1 lsl 60)

let dummy_action () = ()
let dummy_handler _ _ = ()

let free_chain n off = Array.init n (fun i -> if i = n - 1 then -1 else off + i + 1)

let create ?metrics ?flight ?(impl = Wheel) () =
  let flight =
    match flight with Some f -> f | None -> Flight.recorder Flight.global
  in
  let meters =
    Option.map
      (fun m ->
        {
          scheduled = Metrics.counter m "engine.events_scheduled";
          fired = Metrics.counter m "engine.events_fired";
          depth = Metrics.gauge m "engine.queue_depth";
        })
      metrics
  in
  let cap = 64 in
  {
    clock = 0.0;
    seq = 0;
    queue = (match impl with Wheel -> Q_wheel (Engine_wheel.create ()) | Reference -> Q_ref (Engine_reference.create ()));
    ev_tick = Array.make cap 0;
    ev_code = Array.make cap 0;
    ev_a = Array.make cap 0;
    ev_b = Array.make cap 0;
    ev_next = free_chain cap 0;
    ev_free = 0;
    n_pending = 0;
    cls = Array.make cap dummy_action;
    cls_next = free_chain cap 0;
    cls_free = 0;
    handlers = Array.make 8 dummy_handler;
    n_handlers = 1;
    n_fired = 0;
    fp = 0;
    metrics;
    meters;
    flight;
  }

let metrics t = t.metrics
let flight t = t.flight
let now t = t.clock
let pending t = t.n_pending
let events_fired t = t.n_fired
let fingerprint t = t.fp

(* -- Queue dispatch ------------------------------------------------------ *)

let[@inline] q_add t ~tick ~seq ~eid =
  match t.queue with
  | Q_wheel w -> Engine_wheel.add w ~tick ~seq ~eid
  | Q_ref r -> Engine_reference.add r ~tick ~seq ~eid

let[@inline] q_pop t =
  match t.queue with Q_wheel w -> Engine_wheel.pop_min w | Q_ref r -> Engine_reference.pop_min r

let[@inline] q_min t =
  match t.queue with Q_wheel w -> Engine_wheel.min_tick w | Q_ref r -> Engine_reference.min_tick r

(* Times and delays must be numbers the tick clock can hold: NaN, an
   infinity or a time past [max_time] would quantize to a wrong tick (NaN and
   infinity to tick 0, firing at once). *)
let[@inline] check_delay name delay =
  if Float.is_nan delay || delay = infinity then invalid_arg (name ^ ": non-finite delay");
  if delay < 0.0 then invalid_arg (name ^ ": negative delay")

let[@inline] check_time name time =
  if Float.is_nan time || Float.abs time = infinity then invalid_arg (name ^ ": non-finite time");
  if time > max_time then invalid_arg (name ^ ": time beyond the clock's range")

(* -- Pool management ----------------------------------------------------- *)

let grow_events t =
  let cap = Array.length t.ev_tick in
  let ext a = Array.append a (Array.make cap 0) in
  t.ev_tick <- ext t.ev_tick;
  t.ev_code <- ext t.ev_code;
  t.ev_a <- ext t.ev_a;
  t.ev_b <- ext t.ev_b;
  t.ev_next <- Array.append t.ev_next (free_chain cap cap);
  t.ev_free <- cap

let[@inline] alloc_event t =
  if t.ev_free = -1 then grow_events t;
  let eid = t.ev_free in
  t.ev_free <- t.ev_next.(eid);
  eid

let[@inline] release_event t eid =
  t.ev_next.(eid) <- t.ev_free;
  t.ev_free <- eid

let grow_closures t =
  let cap = Array.length t.cls in
  t.cls <- Array.append t.cls (Array.make cap dummy_action);
  t.cls_next <- Array.append t.cls_next (free_chain cap cap);
  t.cls_free <- cap

let[@inline] alloc_closure t f =
  if t.cls_free = -1 then grow_closures t;
  let c = t.cls_free in
  t.cls_free <- t.cls_next.(c);
  t.cls.(c) <- f;
  c

let[@inline] release_closure t c =
  t.cls.(c) <- dummy_action;
  t.cls_next.(c) <- t.cls_free;
  t.cls_free <- c

(* -- Metering helpers ---------------------------------------------------- *)

let[@inline] note_depth t m = Metrics.Gauge.set m.depth (float_of_int t.n_pending)

(* -- Scheduling ---------------------------------------------------------- *)

let schedule_event t ~tick ~code ~a ~b =
  let eid = alloc_event t in
  t.ev_tick.(eid) <- tick;
  t.ev_code.(eid) <- code;
  t.ev_a.(eid) <- a;
  t.ev_b.(eid) <- b;
  t.n_pending <- t.n_pending + 1;
  let seq = t.seq in
  t.seq <- seq + 1;
  q_add t ~tick ~seq ~eid;
  (* Flight record at the *target* tick: avoids a float->tick conversion of
     the current clock on the scheduling hot path. *)
  Flight.record t.flight ~tick ~code:Flight.ev_schedule ~a:code ~b:eid;
  (match t.meters with
  | Some m ->
      Metrics.Counter.incr m.scheduled;
      note_depth t m
  | None -> ())

let schedule_at t ~time action =
  check_time "Engine.schedule_at" time;
  if time < t.clock then invalid_arg "Engine.schedule_at: time in the past";
  let c = alloc_closure t action in
  schedule_event t ~tick:(tick_of_time time) ~code:0 ~a:c ~b:0

let schedule t ~delay action =
  check_delay "Engine.schedule" delay;
  schedule_at t ~time:(t.clock +. delay) action

let register t f =
  let code = t.n_handlers in
  if code = Array.length t.handlers then
    t.handlers <- Array.append t.handlers (Array.make (Array.length t.handlers) dummy_handler);
  t.handlers.(code) <- f;
  t.n_handlers <- code + 1;
  code

let schedule_code t ~delay ~code ~a ~b =
  check_delay "Engine.schedule_code" delay;
  if code <= 0 || code >= t.n_handlers then invalid_arg "Engine.schedule_code: unknown code";
  let time = t.clock +. delay in
  check_time "Engine.schedule_code" time;
  schedule_event t ~tick:(tick_of_time time) ~code ~a ~b

(* -- Periodic series ----------------------------------------------------- *)

let every t ~period action =
  if Float.is_nan period || period = infinity then invalid_arg "Engine.every: non-finite period";
  if period <= 0.0 then invalid_arg "Engine.every: period must be positive";
  let rec fire () =
    action ();
    schedule t ~delay:period fire
  in
  schedule t ~delay:period fire

(* -- Execution ----------------------------------------------------------- *)

(* Dispatch event [eid], just popped from the queue. *)
let fire t eid =
  let tick = t.ev_tick.(eid) in
  let code = t.ev_code.(eid) in
  let a = t.ev_a.(eid) in
  let b = t.ev_b.(eid) in
  (* The clock only moves forward: [run ~until] may have advanced it past
     this tick's quantized float by a sub-tick margin.  Comparing first also
     skips boxing a new clock value for same-tick events. *)
  let time = time_of_tick tick in
  if time > t.clock then t.clock <- time;
  release_event t eid;
  t.n_pending <- t.n_pending - 1;
  t.n_fired <- t.n_fired + 1;
  t.fp <- (((t.fp lxor tick) * 1099511628211) + code) land max_int;
  Flight.record t.flight ~tick ~code:Flight.ev_fire ~a:code ~b:a;
  (match t.meters with
  | Some m ->
      Metrics.Counter.incr m.fired;
      note_depth t m
  | None -> ());
  if code = 0 then begin
    let f = t.cls.(a) in
    release_closure t a;
    f ()
  end
  else t.handlers.(code) a b

(* One queue search per event: [q_min] finds the minimum and leaves it where
   [q_pop] takes it without searching again. *)
let run ?until t =
  let limit = match until with Some limit -> limit | None -> infinity in
  (* A NaN limit would run nothing and then set the clock to NaN. *)
  if Float.is_nan limit then invalid_arg "Engine.run: until is not a number";
  let go = ref true in
  while !go do
    let tick = q_min t in
    if tick <> max_int && time_of_tick tick <= limit then fire t (q_pop t) else go := false
  done;
  match until with Some limit -> t.clock <- Float.max t.clock limit | None -> ()
