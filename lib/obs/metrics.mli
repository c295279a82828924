(** Metrics registry: named counters, gauges, quantile {!Sketch}es and
    sim-time {!Series}, with a deterministic snapshot/render order (sorted
    by name), so two identical seeded simulation runs produce byte-identical
    metric dumps.

    {b One domain per registry.}  A registry is one name -> instrument
    table owned by the domain that {!create}d it; registering an instrument
    from any other domain raises [Invalid_argument].  Drivers that fan out
    across domains ([Pool.map]) have their workers return plain rows and
    record them on the orchestrating domain after the join, so a 1-domain
    and a 4-domain run leave the same registry by construction.
    Instrument handles are plain mutable records: the hot path is one
    unsynchronized field update.

    Asking for the same name twice returns the same instrument; asking for
    an existing name with a different kind raises [Invalid_argument]. *)

type t
(** A registry. *)

val create : unit -> t
(** An empty registry owned by the calling domain. *)

module Counter : sig
  type t

  val incr : t -> unit

  val add : t -> int -> unit
  (** [add c n] with [n >= 0]. *)
end

module Gauge : sig
  type t

  val set : t -> float -> unit
  (** Program order wins: [set] overwrites the last value.  The gauge also
      keeps its high-water mark; {!snapshot} reports both. *)
end

val counter : t -> string -> Counter.t

val gauge : t -> string -> Gauge.t

val sketch : t -> string -> Sketch.t
(** A {!Sketch.t} instrument (dense log buckets for quantile estimates)
    with {!Sketch.create}'s default layout. *)

val series : t -> ?kind:Series.kind -> ?interval:float -> string -> Series.t
(** A {!Series.t} instrument (fixed-interval sim-time ring); defaults as
    {!Series.create}. *)

type value =
  | Counter_value of int
  | Gauge_value of { last : float; max : float }
  | Sketch_value of Sketch.summary
  | Series_value of Series.view

val snapshot : t -> (string * value) list
(** Every instrument as plain data, sorted by name. *)

val render : t -> string
(** Human-readable dump of {!snapshot}, one instrument per line. *)
