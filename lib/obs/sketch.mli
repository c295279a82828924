(** Log-bucket quantile sketch: fixed geometric buckets (edges built by
    repeated multiplication, so bucketing is deterministic across
    platforms), integer bucket counts, and rank-based quantile estimates
    with a known relative error bound.

    Its dense buckets answer p50/p90/p99/p999 with a bounded relative error
    of [(base - 1) / (base + 1)] (each estimate is the harmonic midpoint
    [2*lo*hi / (lo+hi)] of its bucket — the point with the smallest
    worst-case relative error over it — clamped to the observed
    [min]/[max]).  A sketch has one writer, the domain that owns its
    {!Metrics} registry. *)

type t

val create : ?base:float -> ?lowest:float -> ?count:int -> unit -> t
(** Defaults: [base = 1.118], [lowest = 1e-4], [count = 168] bounds plus an
    overflow bucket — covering ~1e-4 .. ~1.2e4 with a ~5.6% relative error
    bound.  [base > 1], [lowest > 0], [count >= 1]. *)

val observe : t -> float -> unit
(** Record one value.  Non-finite values raise [Invalid_argument] (they
    would poison [sum] and serialization). *)

(** A plain-data snapshot of a sketch, as stored in {!Metrics.snapshot}
    values: structural equality, no mutable state shared with the live
    sketch. *)
type summary = {
  base : float;
  lowest : float;
  s_count : int;
  s_sum : float;
  s_min : float;
  s_max : float;
  s_buckets : (float * int) list;
      (** [(upper_bound, count)] per bucket in increasing bound order; the
          final overflow bucket reports [infinity]. *)
}

val summarize : t -> summary

val summary_quantile : summary -> float -> float
(** [summary_quantile s q] with [0 <= q <= 1]: the value at rank
    [ceil (q * s_count)] (rank 1 for [q = 0]), estimated as the harmonic
    midpoint of the covering bucket and clamped to [[s_min, s_max]];
    [q = 0] and [q = 1] return the exactly-tracked extrema.  Raises
    [Invalid_argument] on an empty sketch or a [q] outside [0, 1]. *)

val summary_rel_error : summary -> float
(** The worst-case relative error of {!summary_quantile} estimates that
    land in a finite bucket: [(base - 1) / (base + 1)]. *)
