(** Discrete-event simulation engine: a virtual clock over a scaled-int
    tick domain and a time-ordered event queue.

    Engine v2 keeps the hot loop nearly allocation-free: sim times quantize
    to integer ticks of 100 ns, pending events live in a pooled
    struct-of-arrays table keyed by int ids, and dispatch goes through
    small int event codes ([register] / [schedule_code]) so layered
    protocols can schedule without closure allocation.  A scheduled event
    always fires: the model's failures are persistent and its soft state
    expires by time (§3.2), so nothing cancels a timer.  The clock is the
    one boxed float on the path: each advance to a new tick allocates a
    2-word box, and on packet_restore topologies the loop, protocol
    handlers included, allocates about 2 minor words per fired event.
    Closure scheduling ([schedule] / [schedule_at] / [every]) is still
    available for cold paths and keeps the original semantics.

    Every time, delay and period must be a finite number the tick clock can
    hold (up to ~1.2e11 s); anything else raises [Invalid_argument] rather
    than quantizing to a wrong tick.

    Events at equal times fire in scheduling order (FIFO) — guaranteed, and
    pinned by a regression test; the float-heap engine this replaces only
    provided it by accident of heap layout.

    Two queue implementations sit behind the same facade: the default
    hierarchical timer wheel ([`Wheel]) and the retained binary heap
    ([`Reference]) used as a differential-testing oracle.  For any
    workload the two must produce identical event sequences; [fingerprint]
    exists to check exactly that cheaply. *)

type t

type impl = Wheel | Reference

val tick_of_time : float -> int
(** Nearest-tick quantization of a time in seconds, at 1e7 ticks per
    simulated second (100 ns per tick, {!Smrp_obs.Flight.ticks_per_second}).
    Times quantize this way on scheduling. *)

val create :
  ?metrics:Smrp_obs.Metrics.t -> ?flight:Smrp_obs.Flight.recorder -> ?impl:impl -> unit -> t
(** With [metrics], the engine maintains [engine.events_scheduled] /
    [engine.events_fired] counters and an [engine.queue_depth] gauge (the
    pending events) in that registry.

    [flight] is the always-on flight recorder ring: every schedule and
    fire writes one packed record. Defaults to the calling domain's
    ring in [Flight.global]; pass [Flight.null] to disable recording. *)

val metrics : t -> Smrp_obs.Metrics.t option
(** The registry given at creation: layers built over the engine ([Net],
    [Protocol]) meter into it, so one [create ~metrics] instruments the
    whole simulation. *)

val flight : t -> Smrp_obs.Flight.recorder
(** The flight-recorder ring given at creation; [Net] and [Protocol]
    record their wire and milestone events into the same ring. *)

val now : t -> float

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** [schedule t ~delay f] runs [f] at [now t +. delay].  [delay] must be
    finite and [>= 0]. *)

val schedule_at : t -> time:float -> (unit -> unit) -> unit
(** Absolute-time variant; [time] must be finite and not in the past. *)

val every : t -> period:float -> (unit -> unit) -> unit
(** [every t ~period f] runs [f] at now + period and then each period,
    for as long as the engine runs.  [period] must be finite and
    positive. *)

val register : t -> (int -> int -> unit) -> int
(** [register t f] installs [f] as an int-coded event handler and returns
    its code (>= 1).  [schedule_code] events with that code call [f a b] on
    dispatch — no closure is allocated per event.  Handlers are expected to
    be registered up front, once per layer. *)

val schedule_code : t -> delay:float -> code:int -> a:int -> b:int -> unit
(** Allocation-free scheduling: at [now t +. delay] the handler registered
    for [code] is called with the two int payload words.  [delay] must be
    finite and [>= 0]; [code] must come from [register]. *)

val run : ?until:float -> t -> unit
(** Process events in time order; stops when the queue empties or the clock
    would pass [until] (not NaN; [infinity] runs to the end). *)

val pending : t -> int
(** Number of scheduled events not yet fired. *)

val events_fired : t -> int
(** Total events dispatched so far. *)

val fingerprint : t -> int
(** Rolling hash over the [(tick, code)] sequence of every fired event.
    Two engines that processed the same workload in the same order have
    equal fingerprints — the cheap half of the wheel-vs-reference
    differential oracle. *)
