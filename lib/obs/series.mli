(** Sim-clock time-series sampler: a fixed-interval, ring-buffered record
    of a metric over {e simulated} time, with the same exact-merge
    discipline as the sharded registry's counters and gauges.

    Observations at simulation time [ts] land in bucket
    [floor (ts / interval)]; the ring keeps the most recent [capacity]
    buckets and silently drops observations older than the ring's window
    (counted in {!view}'s [v_dropped]).  Two kinds:

    - [Sum]: observations within a bucket add — the counter-rate shape
      (e.g. frame drops per second).  Cross-shard merge adds bucket-wise,
      so integer-valued observations merge exactly.
    - [Last]: the last observation in a bucket wins — the sampled-gauge
      shape (e.g. live members).  Within a series program order wins;
      cross-shard merge follows gauge semantics per bucket: the greater
      observation timestamp supplies the value, ties broken towards the
      larger value.

    {b Exactness caveat}: per-shard rings evict independently, so a merged
    parallel snapshot equals the sequential one provided no shard evicted a
    bucket the merged ring would keep — guaranteed whenever each shard's
    observed bucket span stays within [capacity] (size the ring for the run
    length).  A series value is single-writer (one domain), like every
    registry instrument. *)

type kind = Sum | Last

type t

val create : ?kind:kind -> ?interval:float -> ?capacity:int -> unit -> t
(** Defaults: [kind = Sum], [interval = 1.0] (simulated seconds),
    [capacity = 512] buckets.  [interval > 0], [capacity >= 1]. *)

val observe : t -> ts:float -> float -> unit
(** Record [v] at simulation time [ts >= 0] (non-finite or negative [ts],
    or a non-finite [v], raises [Invalid_argument]). *)

val compatible : t -> t -> bool
(** Same [kind], [interval] and [capacity]? *)

val copy : t -> t

val merge_into : into:t -> t -> unit
(** Fold [src] into [into] bucket-wise per the kind's rule, then trim to
    the merged ring's window.  An accumulation for [Sum] (merging the same
    series twice double-counts).  Raises [Invalid_argument] when the
    layouts differ. *)

(** Plain-data snapshot, as stored in merged {!Metrics.snapshot} values.
    [v_points] are the non-empty buckets in time order, as
    [(bucket start time, value)].  [v_dropped] counts observations
    discarded because their bucket had already left the ring's window,
    and buckets a merge pushed out of it — non-zero means the points no
    longer cover the full run. *)
type view = {
  v_kind : kind;
  v_interval : float;
  v_points : (float * float) list;
  v_dropped : int;
}

val view : t -> view
