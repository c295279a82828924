(** Array-backed binary min-heap with [float] priorities and monotone
    insertion order as the tie-break, so equal-priority elements pop in
    insertion order (deterministic Dijkstra and simulator event queues). *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** [create ?capacity ()] is an empty heap.  [capacity] pre-sizes the backing
    array (applied at the first insertion) so a heap whose final size is known
    never reallocates; it is a hint, not a limit. *)

val add : 'a t -> float -> 'a -> unit
(** [add h prio x] inserts [x] with priority [prio]. *)

val pop_min : 'a t -> (float * 'a) option
(** Remove and return the minimum-priority element, ties broken by insertion
    order. *)
