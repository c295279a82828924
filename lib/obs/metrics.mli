(** Domain-sharded metrics registry: named counters, gauges, quantile
    {!Sketch}es and sim-time {!Series} with a deterministic merged
    snapshot/render order (sorted by name), so two identical seeded
    simulation runs produce byte-identical metric dumps — whether they ran
    on one domain or many.

    {b Sharding model.}  Each domain that touches a registry gets a private
    shard; an instrument handle returned by {!counter} / {!gauge} /
    {!sketch} / {!series} belongs to the calling domain's shard and must
    only be mutated by that domain.  The mutation hot path is therefore a plain
    unsynchronized increment; registration and {!snapshot} take the
    registry mutex.  {!snapshot} merges all shards: counters add, gauges
    keep the value with the greatest {!Gauge.set} timestamp (ties towards
    the larger value) and the max of maxima, sketches and series (identical
    layouts required) add bucket-wise.

    Counter and bucket totals are integers, so a parallel run merges to
    exactly the sequential snapshot; sketch sums are additionally exact
    when the observed values are integers (hop counts, event counts).
    Snapshots race-free: concurrent increments cannot tear a word-sized
    field, but only quiescent snapshots (taken after workers joined) are
    guaranteed exact.

    Instruments are created through a registry and cached by name {e per
    shard}: asking for the same name twice in one domain returns the same
    instrument; asking for an existing name with a different kind raises
    [Invalid_argument] (at registration within a shard, at merge across
    shards). *)

type t
(** A registry. *)

val create : unit -> t

val shard_count : t -> int
(** Number of domains that have touched this registry so far. *)

module Counter : sig
  type t

  val incr : t -> unit

  val add : t -> int -> unit
  (** [add c n] with [n >= 0]. *)

  val value : t -> int
  (** This shard's count only; use {!snapshot} for the merged total. *)
end

module Gauge : sig
  type t

  val set : t -> ?ts:float -> float -> unit
  (** Within a shard, program order wins: [set] overwrites the last value
      unconditionally.  [ts] (default [neg_infinity]) defines the
      cross-shard merge: the shard with the greatest timestamp supplies the
      merged last value, ties broken towards the larger value.  Stamp sets
      with a monotone clock (e.g. the simulation clock) to make "last"
      well-defined across domains. *)

  val value : t -> float

  val last_ts : t -> float
  (** Timestamp of the last [set] ([neg_infinity] if unstamped). *)

  val max_value : t -> float
  (** High-water mark over the gauge's lifetime ([neg_infinity] before the
      first [set]). *)
end

val counter : t -> string -> Counter.t

val gauge : t -> string -> Gauge.t

val sketch : t -> ?base:float -> ?lowest:float -> ?count:int -> string -> Sketch.t
(** A {!Sketch.t} instrument (dense log buckets for quantile estimates);
    defaults as {!Sketch.create}.  Sketches merge across shards by
    bucket-wise addition; layout mismatches (base/lowest/bucket count)
    raise [Invalid_argument] at merge time. *)

val series : t -> ?kind:Series.kind -> ?interval:float -> ?capacity:int -> string -> Series.t
(** A {!Series.t} instrument (fixed-interval sim-time ring); defaults as
    {!Series.create}.  Series merge across shards bucket-wise per their
    kind ([Sum] adds, [Last] follows gauge timestamp rules); layout
    mismatches (kind/interval/capacity) raise [Invalid_argument] at merge
    time. *)

type value =
  | Counter_value of int
  | Gauge_value of { last : float; max : float }
  | Sketch_value of Sketch.summary
  | Series_value of Series.view

val snapshot : t -> (string * value) list
(** All instruments merged across shards, sorted by name.  Raises
    [Invalid_argument] on cross-shard kind clashes or layout mismatches. *)

val merge_into : into:t -> t -> unit
(** [merge_into ~into src] folds [src]'s merged totals into [into]'s
    calling-domain shard, creating missing instruments (sketches and series
    keep [src]'s layout).  This is an accumulation — calling it twice with
    the same [src] double-counts.  Raises [Invalid_argument] on kind or
    layout mismatches. *)

val render : t -> string
(** Human-readable dump of {!snapshot}, one instrument per line. *)
