module Graph = Smrp_graph.Graph
module Metrics = Smrp_obs.Metrics
module Flight = Smrp_obs.Flight

type meters = {
  m_sent : Metrics.Counter.t;
  m_delivered : Metrics.Counter.t;
  m_lost : Metrics.Counter.t;
  m_dropped_send : Metrics.Counter.t;
  m_dropped_flight : Metrics.Counter.t;
  m_drop_series : Smrp_obs.Series.t; (* drops per sim second, all causes *)
}

(* In-flight frames live in a pooled struct-of-arrays table; delivery is a
   single registered engine code whose payload word is the frame slot, so a
   send allocates nothing (the generic ['msg] column is the one lazily
   created array, reused across frames). *)
type 'msg t = {
  engine : Engine.t;
  graph : Graph.t;
  handler : 'msg t -> at:int -> from:int -> eid:int -> 'msg -> unit;
  on_drop : ('msg -> unit) option;
  link_down : bool array;
  node_down : bool array;
  mutable loss : (Smrp_rng.Rng.t * float) option;
  mutable frames_sent : int;
  mutable frames_delivered : int;
  mutable frames_lost : int;
  mutable dropped_send_failure : int; (* rejected at send: link/endpoint down *)
  mutable dropped_in_flight : int; (* link/endpoint died during propagation *)
  msg_int : 'msg -> int; (* packed wire form for flight records; 0 if opaque *)
  flight : Flight.recorder; (* the engine's ring *)
  meters : meters option;
  (* frame pool (free list threaded through fr_next) *)
  mutable fr_src : int array;
  mutable fr_dst : int array;
  mutable fr_eid : int array;
  mutable fr_next : int array;
  mutable fr_msg : 'msg array; (* length 0 until the first send *)
  mutable fr_free : int;
  mutable deliver_code : int;
}

let frame_cap0 = 64

let free_chain n off = Array.init n (fun i -> if i = n - 1 then -1 else off + i + 1)

let link_up t eid = not t.link_down.(eid)

let node_up t v = not t.node_down.(v)

let meter t f = match t.meters with Some m -> Metrics.Counter.incr (f m) | None -> ()

(* One frame failed to reach its destination (any cause): a point on the
   drops-per-sim-second series. *)
let meter_drop t =
  match t.meters with
  | Some m -> Smrp_obs.Series.observe m.m_drop_series ~ts:(Engine.now t.engine) 1.0
  | None -> ()

(* A frame (or its payload) is gone for good: give the layer above a chance
   to reclaim whatever the message indexes. *)
let[@inline] drop t msg = match t.on_drop with Some f -> f msg | None -> ()

(* Flight record for a wire event: a = the packed message, b = src/dst. *)
let[@inline] flight_record t ~code ~src ~dst msg =
  Flight.record t.flight
    ~tick:(Engine.tick_of_time (Engine.now t.engine))
    ~code ~a:(t.msg_int msg) ~b:(Flight.pack src dst)

let grow_frames t =
  let cap = Array.length t.fr_src in
  let ext a = Array.append a (Array.make cap 0) in
  t.fr_src <- ext t.fr_src;
  t.fr_dst <- ext t.fr_dst;
  t.fr_eid <- ext t.fr_eid;
  t.fr_next <- Array.append t.fr_next (free_chain cap cap);
  t.fr_msg <- Array.append t.fr_msg (Array.make cap t.fr_msg.(0));
  t.fr_free <- cap

let[@inline] alloc_frame t msg =
  if Array.length t.fr_msg = 0 then t.fr_msg <- Array.make (Array.length t.fr_src) msg;
  if t.fr_free = -1 then grow_frames t;
  let s = t.fr_free in
  t.fr_free <- t.fr_next.(s);
  s

let[@inline] release_frame t s =
  t.fr_next.(s) <- t.fr_free;
  t.fr_free <- s

let deliver t slot =
  let src = t.fr_src.(slot) in
  let dst = t.fr_dst.(slot) in
  let eid = t.fr_eid.(slot) in
  let msg = t.fr_msg.(slot) in
  release_frame t slot;
  (* The wire may have gone down while the frame was in flight. *)
  if (not t.link_down.(eid)) && (not t.node_down.(src)) && not t.node_down.(dst) then begin
    t.frames_delivered <- t.frames_delivered + 1;
    flight_record t ~code:Flight.net_deliver ~src ~dst msg;
    meter t (fun m -> m.m_delivered);
    t.handler t ~at:dst ~from:src ~eid msg
  end
  else begin
    t.dropped_in_flight <- t.dropped_in_flight + 1;
    flight_record t ~code:Flight.net_drop_flight ~src ~dst msg;
    meter t (fun m -> m.m_dropped_flight);
    meter_drop t;
    drop t msg
  end

let create ?metrics ?msg_int ?on_drop engine graph ~handler =
  let metrics = match metrics with Some _ as m -> m | None -> Engine.metrics engine in
  let meters =
    Option.map
      (fun m ->
        {
          m_sent = Metrics.counter m "net.frames_sent";
          m_delivered = Metrics.counter m "net.frames_delivered";
          m_lost = Metrics.counter m "net.frames_lost";
          m_dropped_send = Metrics.counter m "net.frames_dropped_failure_at_send";
          m_dropped_flight = Metrics.counter m "net.frames_dropped_failure_in_flight";
          m_drop_series = Metrics.series m ~kind:Smrp_obs.Series.Sum "net.frame_drops";
        })
      metrics
  in
  let t =
    {
      engine;
      graph;
      handler;
      on_drop;
      link_down = Array.make (Graph.edge_count graph) false;
      node_down = Array.make (Graph.node_count graph) false;
      loss = None;
      frames_sent = 0;
      frames_delivered = 0;
      frames_lost = 0;
      dropped_send_failure = 0;
      dropped_in_flight = 0;
      msg_int = (match msg_int with Some f -> f | None -> fun _ -> 0);
      flight = Engine.flight engine;
      meters;
      fr_src = Array.make frame_cap0 0;
      fr_dst = Array.make frame_cap0 0;
      fr_eid = Array.make frame_cap0 0;
      fr_next = free_chain frame_cap0 0;
      fr_msg = [||];
      fr_free = 0;
      deliver_code = 0;
    }
  in
  t.deliver_code <- Engine.register engine (fun slot _ -> deliver t slot);
  t

let send t ~src ~dst msg =
  let eid = Graph.find_edge t.graph src dst in
  if eid < 0 then invalid_arg "Net.send: nodes not adjacent";
  if t.link_down.(eid) || t.node_down.(src) || t.node_down.(dst) then begin
    t.dropped_send_failure <- t.dropped_send_failure + 1;
    flight_record t ~code:Flight.net_drop_send ~src ~dst msg;
    meter t (fun m -> m.m_dropped_send);
    meter_drop t;
    drop t msg;
    false
  end
  else begin
    t.frames_sent <- t.frames_sent + 1;
    flight_record t ~code:Flight.net_send ~src ~dst msg;
    meter t (fun m -> m.m_sent);
    let lost =
      match t.loss with
      | Some (rng, rate) when Smrp_rng.Rng.float rng 1.0 < rate ->
          t.frames_lost <- t.frames_lost + 1;
          flight_record t ~code:Flight.net_drop_loss ~src ~dst msg;
          meter t (fun m -> m.m_lost);
          meter_drop t;
          drop t msg;
          true
      | _ -> false
    in
    if not lost then begin
      let slot = alloc_frame t msg in
      t.fr_src.(slot) <- src;
      t.fr_dst.(slot) <- dst;
      t.fr_eid.(slot) <- eid;
      t.fr_msg.(slot) <- msg;
      Engine.schedule_code t.engine ~delay:(Graph.edge t.graph eid).Graph.delay ~code:t.deliver_code
        ~a:slot ~b:0
    end;
    true
  end

let fail_link t eid = t.link_down.(eid) <- true

let fail_node t v = t.node_down.(v) <- true

let restore_link t eid = t.link_down.(eid) <- false

let as_failure t =
  let downs = ref [] in
  Array.iteri (fun i d -> if d then downs := Smrp_core.Failure.Link i :: !downs) t.link_down;
  Array.iteri (fun v d -> if d then downs := Smrp_core.Failure.Node v :: !downs) t.node_down;
  match !downs with [ f ] -> Some f | _ -> None

let set_loss t ~rng ~rate =
  if rate < 0.0 || rate >= 1.0 then invalid_arg "Net.set_loss: rate out of [0, 1)";
  t.loss <- Some (rng, rate)

let counters t =
  [
    ("sent", t.frames_sent);
    ("delivered", t.frames_delivered);
    ("lost", t.frames_lost);
    ("dropped_failure_at_send", t.dropped_send_failure);
    ("dropped_failure_in_flight", t.dropped_in_flight);
  ]
