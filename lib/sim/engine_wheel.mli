(** Hierarchical timer wheel keyed on the scaled-int simulation clock.

    Four levels of 32 slots each.  A level-0 slot spans [2^13] ticks
    (0.82 ms at the engine's 100 ns tick) and holds its entries sorted by
    [(tick, seq)]; each higher level's slots are 32 times wider (level 1
    spans 0.84 s), so a frame delayed by 0.01–0.5 s is placed at most twice
    before it pops.  The wheel spans [2^33] ticks (~859 simulated seconds);
    later entries wait in an unsorted overflow list that drains in as the
    clock approaches.  Per-level occupancy bitmaps let the search skip empty
    regions in O(levels) instead of slot by slot.

    The minimum sits at the head of the hand's own level-0 slot, so
    [min_tick] followed by [pop_min] costs one search; the search itself
    runs only when that slot runs dry.  On packet_restore topologies this
    is about 2.0 placements and 0.26 searches per fired event.

    Entries at equal ticks pop in ascending [seq] (FIFO scheduling order),
    so the pop sequence is identical to {!Engine_reference}'s for any
    workload, which the engine-differential tests and a QCheck property
    assert. *)

type t

val create : unit -> t

val add : t -> tick:int -> seq:int -> eid:int -> unit
(** Insert event [eid] at [tick] (absolute, in ticks, [< max_int]).  [seq]
    must be globally unique and monotone in scheduling order.  Any tick is
    accepted, but one below the wheel's hand (a lower bound on the pending
    minimum, which [min_tick] may move past the engine clock) re-places
    every entry: the engine does that at most once per [run ~until]
    boundary, when it schedules before the next run. *)

val min_tick : t -> int
(** Tick of the earliest pending entry; [max_int] when empty.  May cascade
    higher-level slots down as a side effect. *)

val pop_min : t -> int
(** Remove and return the [eid] with the smallest [(tick, seq)]; [-1] when
    empty.  Right after [min_tick] it does no search. *)
