(** Sim-clock time-series sampler: a fixed-interval, ring-buffered record
    of a metric over {e simulated} time, with the same exact-merge
    discipline as the sharded registry's counters and gauges.

    Observations at simulation time [ts] land in bucket
    [floor (ts / interval)]; the ring keeps the most recent [capacity]
    buckets and silently drops observations older than the ring's window
    (counted in {!dropped}).  Two kinds:

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

val samples : t -> int
(** Observations accepted (including into since-evicted buckets). *)

val dropped : t -> int
(** Observations discarded because their bucket had already left the
    ring's window. *)

val points : t -> (float * float) list
(** Non-empty buckets in time order, as [(bucket start time, value)]. *)

val compatible : t -> t -> bool
(** Same [kind], [interval] and [capacity]? *)

val copy : t -> t

val merge_into : into:t -> t -> unit
(** Fold [src] into [into] bucket-wise per the kind's rule, then trim to
    the merged ring's window.  An accumulation for [Sum] (merging the same
    series twice double-counts).  Raises [Invalid_argument] when the
    layouts differ. *)

(** Plain-data snapshot, as stored in merged {!Metrics.snapshot} values.
    [v_dropped] counts buckets that scrolled out of the ring before the
    snapshot — non-zero means the points no longer cover the full run. *)
type view = {
  v_kind : kind;
  v_interval : float;
  v_points : (float * float) list;
  v_dropped : int;
}

val view : t -> view
