(** Connectivity analysis, with the same node/edge filtering convention as
    {!Dijkstra} so that failure scenarios compose. *)

val reachable_from : ?node_ok:(int -> bool) -> ?edge_ok:(int -> bool) -> Graph.t -> int -> bool array
(** BFS reachability from a node in the (filtered) graph. *)

type union_find
(** Disjoint sets over [0 .. n-1], with path compression: the component
    bookkeeping of both Waxman draws' stitching. *)

val union_find : int -> union_find
(** [union_find n]: [n] singleton sets. *)

val find : union_find -> int -> int
(** The representative of an element's set. *)

val union : union_find -> int -> int -> bool
(** Merge two elements' sets, attaching the first set's representative
    below the second's; [false] when they were one set already. *)

val bridges : Graph.t -> int list
(** Edge ids whose removal disconnects their component (Tarjan low-link). *)
