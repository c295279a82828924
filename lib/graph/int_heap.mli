(** Binary min-heap specialised to [int] values with unboxed [float array]
    priorities: the allocation-free priority queue behind the Dijkstra
    workspace.  Equal priorities pop in insertion order, the same tie-break
    as the generic {!Heap}, so both back identical deterministic searches. *)

(** The representation is exposed so Dijkstra's relaxation loop can inline
    the insertion sift: without flambda, a float passed to {!add} is boxed
    at the call boundary, and that boxing is the last allocation on the
    search's hot path.  Treat the fields as private outside such loops; the
    invariants are those of an implicit binary heap ordered by
    [(prio, seq)], with [size] live entries and [next_seq] the next
    insertion stamp. *)
type t = {
  mutable prio : float array;
  mutable seq : int array;
  mutable value : int array;
  mutable size : int;
  mutable next_seq : int;
}

val create : ?capacity:int -> unit -> t
(** [create ?capacity ()] pre-sizes the backing arrays (default 16). *)

val grow : t -> unit
(** Double the backing arrays if full — call before writing entry [size]
    directly in an inlined insertion. *)

val is_empty : t -> bool

val clear : t -> unit
(** O(1) reset; backing arrays are retained for reuse. *)

val add : t -> float -> int -> unit

val top_prio : t -> float
(** Priority of the minimum.  Raises [Invalid_argument] when empty. *)

val top : t -> int
(** Value of the minimum.  Raises [Invalid_argument] when empty. *)

val drop : t -> unit
(** Remove the minimum without returning it (the allocation-free pop).
    Raises [Invalid_argument] when empty. *)
