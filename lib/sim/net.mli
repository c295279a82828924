(** Message-passing network over a graph: unicast frames between neighbours
    with per-link propagation delay, plus link/node failure injection.

    Frames in flight when their link or an endpoint fails are dropped at
    delivery time — the receiving interface is down, which is exactly how a
    persistent failure manifests to the protocol above. *)

type 'msg t

val create :
  ?metrics:Smrp_obs.Metrics.t ->
  ?msg_int:('msg -> int) ->
  ?on_drop:('msg -> unit) ->
  Engine.t ->
  Smrp_graph.Graph.t ->
  handler:('msg t -> at:int -> from:int -> eid:int -> 'msg -> unit) ->
  'msg t
(** [handler] is invoked at delivery time on the receiving node; [eid] is
    the id of the edge the frame arrived on (useful for flat per-link
    state without an edge lookup).

    [msg_int] gives the packed wire form of a message for flight-recorder
    records (sends, deliveries and every drop cause are recorded into the
    engine's ring with operands [(msg_int msg, Flight.pack src dst)]);
    opaque messages record 0.

    [on_drop] is called with the message of every frame that will never be
    delivered — rejected at send time, Bernoulli-lost, or killed in flight
    — so layers that index side payloads by message can reclaim them.

    [metrics] defaults to the engine's registry ({!Engine.metrics}); when
    present the net maintains [net.frames_*] counters and a
    [net.frame_drops] series. *)

val engine : 'msg t -> Engine.t

val graph : 'msg t -> Smrp_graph.Graph.t

val send : 'msg t -> src:int -> dst:int -> 'msg -> bool
(** Send over the (existing) link [src]–[dst]; returns whether the frame was
    put on the wire (i.e. the link and both endpoints were up at send time).
    Raises [Invalid_argument] if the nodes are not adjacent. *)

val fail_link : 'msg t -> int -> unit
(** Take an edge down (by id). *)

val fail_node : 'msg t -> int -> unit
(** Kill a router: all its incident links stop delivering. *)

val restore_link : 'msg t -> int -> unit

val restore_node : 'msg t -> int -> unit

val link_up : 'msg t -> int -> bool

val node_up : 'msg t -> int -> bool

val as_failure : 'msg t -> Smrp_core.Failure.t option
(** The current failure scenario, when exactly one component is down —
    convenience for driving the core library's detour computations from
    simulator state. *)

val set_loss : 'msg t -> rng:Smrp_rng.Rng.t -> rate:float -> unit
(** Bernoulli frame loss: each frame is dropped at delivery with probability
    [rate] (drawn from [rng], so runs stay reproducible).  Models the
    transient losses the soft-state machinery (§3.2) must absorb. *)

val frames_sent : 'msg t -> int
(** Total frames accepted onto a wire: the control-overhead metric. *)

val frames_delivered : 'msg t -> int
(** Frames that reached their destination's handler. *)

val frames_lost : 'msg t -> int
(** Frames dropped by the Bernoulli loss process (not by failures). *)

val frames_dropped_failure : 'msg t -> int
(** Frames dropped because a link or endpoint was down — rejected at send
    time or killed in flight — as opposed to Bernoulli loss. *)

val counters : 'msg t -> (string * int) list
(** Frame accounting by outcome: [sent], [delivered], [lost] (Bernoulli),
    [dropped_failure_at_send], [dropped_failure_in_flight].  [sent] counts
    frames accepted onto a wire, so
    [sent = delivered + lost + dropped_failure_in_flight + in-flight] and
    send-time failure drops are outside [sent]. *)
