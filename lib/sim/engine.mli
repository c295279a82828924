(** Discrete-event simulation engine: a virtual clock over a scaled-int
    tick domain and a time-ordered event queue.

    Engine v2 runs the hot loop allocation-free: sim times quantize to
    integer ticks of 100 ns, pending events live in a pooled
    struct-of-arrays table keyed by int ids, cancellation is an O(1)
    generation-stamped lazy delete, and dispatch goes through small int
    event codes ([register] / [schedule_code]) so layered protocols can
    schedule without closure allocation.  Closure scheduling ([schedule] /
    [schedule_at] / [every]) is still available for cold paths and keeps
    the original semantics.

    Events at equal times fire in scheduling order (FIFO) — guaranteed, and
    pinned by a regression test; the float-heap engine this replaces only
    provided it by accident of heap layout.

    Two queue implementations sit behind the same facade: the default
    hierarchical timer wheel ([`Wheel]) and the retained binary heap
    ([`Reference]) used as a differential-testing oracle.  For any
    workload the two must produce identical event sequences; [fingerprint]
    exists to check exactly that cheaply. *)

type t

type handle
(** A cancellable scheduled event (or periodic series).  Handles are
    generation-stamped ints: cancelling a handle whose event already fired
    — even if the underlying slot has been recycled — is a safe no-op. *)

type impl = Wheel | Reference

val ticks_per_second : float
(** Clock resolution: 1e7 ticks per simulated second (100 ns per tick).
    Times quantize to the nearest tick on scheduling. *)

val tick_of_time : float -> int
(** Nearest-tick quantization of a time in seconds. *)

val time_of_tick : int -> float

val create :
  ?metrics:Smrp_obs.Metrics.t -> ?flight:Smrp_obs.Flight.recorder -> ?impl:impl -> unit -> t
(** With [metrics], the engine maintains [engine.events_scheduled] /
    [engine.events_fired] / [engine.events_cancelled] (popped after
    cancellation) / [engine.events_cancelled_pending] (cancelled, not yet
    popped) counters and an [engine.queue_depth] gauge in that registry.
    The depth gauge counts {e live} events only — lazy-deleted entries
    still in the queue do not inflate it.

    [flight] is the always-on flight recorder ring: every schedule, fire
    and cancel writes one packed record. Defaults to the calling domain's
    ring in [Flight.global]; pass [Flight.null] to disable recording. *)

val metrics : t -> Smrp_obs.Metrics.t option
(** The registry given at creation: layers built over the engine ([Net],
    [Protocol]) inherit it by default, so one [create ~metrics] instruments
    the whole simulation. *)

val flight : t -> Smrp_obs.Flight.recorder
(** The flight-recorder ring given at creation; [Net] and [Protocol]
    record their wire and milestone events into the same ring. *)

val now : t -> float

val schedule : t -> delay:float -> (unit -> unit) -> handle
(** [schedule t ~delay f] runs [f] at [now t +. delay].  [delay >= 0]. *)

val schedule_at : t -> time:float -> (unit -> unit) -> handle
(** Absolute-time variant; [time] must not be in the past. *)

val cancel : t -> handle -> unit
(** O(1) lazy delete.  Idempotent; cancelling a fired event is a no-op. *)

val every : t -> period:float -> ?jitter:(unit -> float) -> (unit -> unit) -> handle
(** [every t ~period f] runs [f] now + period, then each period (+ optional
    jitter per firing) until the returned handle is cancelled. *)

val register : t -> (int -> int -> unit) -> int
(** [register t f] installs [f] as an int-coded event handler and returns
    its code (>= 1).  [schedule_code] events with that code call [f a b] on
    dispatch — no closure is allocated per event.  Handlers are expected to
    be registered up front, once per layer. *)

val schedule_code : t -> delay:float -> code:int -> a:int -> b:int -> unit
(** Allocation-free scheduling: at [now t +. delay] the handler registered
    for [code] is called with the two int payload words.  [delay >= 0];
    [code] must come from [register]. *)

val run : ?until:float -> t -> unit
(** Process events in time order; stops when the queue empties or the clock
    would pass [until]. *)

val step : t -> bool
(** Process one event; [false] when the queue is empty. *)

val pending : t -> int
(** Number of live (not cancelled) scheduled events. *)

val events_fired : t -> int
(** Total events dispatched so far (excludes cancelled pops). *)

val fingerprint : t -> int
(** Rolling hash over the [(tick, code)] sequence of every fired event.
    Two engines that processed the same workload in the same order have
    equal fingerprints — the cheap half of the wheel-vs-reference
    differential oracle. *)
