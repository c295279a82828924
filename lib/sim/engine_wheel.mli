(** Hierarchical timer wheel keyed on the scaled-int simulation clock.

    Seven levels of 32 slots each: level [l] has slot width [32^l] ticks, so
    the wheel spans [32^7] ticks (~3436 simulated seconds at the engine's
    100 ns tick) before entries spill into an unsorted overflow list that is
    cascaded back in as the clock approaches.  Per-level occupancy bitmaps
    let the search skip empty regions in O(levels) instead of tick-by-tick.

    Entries at equal ticks pop in ascending [seq] (FIFO scheduling order):
    level-0 slots are kept seq-sorted — direct schedules append in order, and
    the rare cascade that appends out of order re-sorts the slot.  The pop
    sequence is therefore identical to {!Engine_reference}'s for any
    workload, which the engine-differential tests assert. *)

type t

val create : unit -> t

val add : t -> tick:int -> seq:int -> eid:int -> unit
(** Insert event [eid] at [tick] (absolute, in ticks).  [seq] must be
    globally unique and monotone in scheduling order. *)

val min_tick : t -> int
(** Tick of the earliest pending entry; [max_int] when empty.  May cascade
    higher-level slots down as a side effect. *)

val pop_min : t -> int
(** Remove and return the [eid] with the smallest [(tick, seq)]; [-1] when
    empty. *)
