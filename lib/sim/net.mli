(** Message-passing network over a graph: unicast frames between neighbours
    with per-link propagation delay, plus link failure injection.

    A failed link stays down (the paper's failures are persistent, §1), and
    a frame is lost only to a failure: frames in flight when their link
    fails are dropped at delivery time — the receiving interface is down,
    which is exactly how a persistent failure manifests to the protocol
    above. *)

type 'msg t

val create :
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
    delivered — rejected at send time or killed in flight — so layers that
    index side payloads by message can reclaim them.

    When the engine has a registry ({!Engine.metrics}), the net maintains
    [net.frames_*] counters and a [net.frame_drops] series there. *)

val send : 'msg t -> src:int -> dst:int -> 'msg -> bool
(** Send over the (existing) link [src]–[dst]; returns whether the frame was
    put on the wire (i.e. the link was up at send time).  Raises
    [Invalid_argument] if the nodes are not adjacent. *)

val fail_link : 'msg t -> int -> unit
(** Take an edge down (by id), for good. *)

val link_up : 'msg t -> int -> bool

val counters : 'msg t -> (string * int) list
(** Frame accounting by outcome: [sent], [delivered], [lost] (always 0:
    nothing drops a frame at random), [dropped_failure_at_send],
    [dropped_failure_in_flight].  [sent] counts frames accepted onto a
    wire, so [sent = delivered + dropped_failure_in_flight + in-flight]
    and send-time failure drops are outside [sent]. *)
