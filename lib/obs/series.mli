(** Sim-clock time-series sampler: a fixed-interval, ring-buffered record
    of a metric over {e simulated} time.

    Observations at simulation time [ts] land in bucket
    [floor (ts / interval)]; the ring keeps the most recent [capacity]
    buckets and silently drops observations older than the ring's window
    (counted in {!view}'s [v_dropped]).  Two kinds:

    - [Sum]: observations within a bucket add — the counter-rate shape
      (e.g. frame drops per second).
    - [Last]: the last observation in a bucket wins, in program order —
      the sampled-gauge shape (e.g. live members).

    A series has one writer, the domain that owns its {!Metrics}
    registry. *)

type kind = Sum | Last

type t

val create : ?kind:kind -> ?interval:float -> ?capacity:int -> unit -> t
(** Defaults: [kind = Sum], [interval = 1.0] (simulated seconds),
    [capacity = 512] buckets.  [interval > 0], [capacity >= 1]. *)

val observe : t -> ts:float -> float -> unit
(** Record [v] at simulation time [ts >= 0] (non-finite or negative [ts],
    or a non-finite [v], raises [Invalid_argument]). *)

(** Plain-data snapshot, as stored in {!Metrics.snapshot} values.
    [v_points] are the non-empty buckets in time order, as
    [(bucket start time, value)].  [v_dropped] counts observations
    discarded because their bucket had already left the ring's window —
    non-zero means the points no longer cover the full run. *)
type view = {
  v_kind : kind;
  v_interval : float;
  v_points : (float * float) list;
  v_dropped : int;
}

val view : t -> view
