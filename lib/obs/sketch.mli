(** Mergeable log-bucket quantile sketch: fixed geometric buckets (edges
    built by repeated multiplication, so bucketing is deterministic across
    platforms), integer bucket counts, and rank-based quantile estimates
    with a known relative error bound.

    Its dense buckets answer p50/p90/p99/p999 with a bounded relative error
    of [(base - 1) / (base + 1)] (each estimate is the harmonic midpoint
    [2*lo*hi / (lo+hi)] of its bucket — the point with the smallest
    worst-case relative error over it — clamped to the observed
    [min]/[max]).

    {b Merge semantics} mirror the sharded-registry counter rules exactly:
    two sketches with identical layout (same [base], [lowest], bucket
    count) merge by bucket-wise integer addition ([count] adds, [sum] adds,
    [min]/[max] combine); merging sketches with different layouts raises
    [Invalid_argument].  Because bucket counts are integers, a parallel
    fan-out recording into per-domain sketches merges to exactly the
    sequential sketch whatever the scheduling — and when the observed
    values are themselves integers (hop counts), the float [sum] is exact
    too.  A sketch value is single-writer (one domain) like every registry
    instrument; cross-domain aggregation happens at merge time. *)

type t

val create : ?base:float -> ?lowest:float -> ?count:int -> unit -> t
(** Defaults: [base = 1.118], [lowest = 1e-4], [count = 168] bounds plus an
    overflow bucket — covering ~1e-4 .. ~1.2e4 with a ~5.6% relative error
    bound.  [base > 1], [lowest > 0], [count >= 1]. *)

val observe : t -> float -> unit
(** Record one value.  Non-finite values raise [Invalid_argument] (they
    would poison [sum] and serialization). *)

val base : t -> float

val lowest : t -> float

val bucket_count : t -> int
(** Number of finite bounds (the overflow bucket is extra). *)

val count : t -> int

val sum : t -> float

val min_value : t -> float
(** Smallest observed value; [infinity] while empty. *)

val max_value : t -> float
(** Largest observed value; [neg_infinity] while empty. *)

val buckets : t -> (float * int) list
(** [(upper_bound, count)] per bucket in increasing bound order; the final
    overflow bucket reports [infinity].  Counts are per-bucket. *)

val rel_error : t -> float
(** The worst-case relative error of {!quantile} estimates that land in a
    finite bucket: [(base - 1) / (base + 1)]. *)

val quantile : t -> float -> float
(** [quantile t q] with [0 <= q <= 1]: the value at rank [ceil (q * count)]
    (rank 1 for [q = 0]), estimated as the harmonic midpoint of the
    covering bucket and clamped to [[min_value, max_value]]; [q = 0] and
    [q = 1] return the exactly-tracked extrema.  Raises [Invalid_argument]
    on an empty sketch or a [q] outside [0, 1]. *)

val quantile_bounds : t -> float -> float * float
(** The covering bucket's [(lower, upper)] edges for the same rank,
    intersected with [[min_value, max_value]] — a hard interval the true
    quantile lies in. *)

val compatible : t -> t -> bool
(** Same layout ([base], [lowest], bucket count)? *)

val copy : t -> t

val merge_into : into:t -> t -> unit
(** Bucket-wise accumulation of [src] into [into]; an accumulation, not a
    union (merging the same sketch twice double-counts).  Raises
    [Invalid_argument] when the layouts differ. *)

(** A plain-data snapshot of a sketch, as stored in merged
    {!Metrics.snapshot} values: order-insensitive structural equality, no
    mutable state shared with the live sketch. *)
type summary = {
  base : float;
  lowest : float;
  s_count : int;
  s_sum : float;
  s_min : float;
  s_max : float;
  s_buckets : (float * int) list;  (** As {!buckets}. *)
}

val summarize : t -> summary

val summary_quantile : summary -> float -> float
(** {!quantile} computed on a snapshot. *)

val summary_rel_error : summary -> float
