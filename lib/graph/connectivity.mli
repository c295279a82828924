(** Connectivity analysis, with the same node/edge filtering convention as
    {!Dijkstra} so that failure scenarios compose. *)

val reachable_from : ?node_ok:(int -> bool) -> ?edge_ok:(int -> bool) -> Graph.t -> int -> bool array
(** BFS reachability from a node in the (filtered) graph. *)

val components : ?edge_ok:(int -> bool) -> Graph.t -> int array * int
(** [(comp, count)] where [comp.(v)] is the component index of node [v]
    and [count] the number of components. *)

val bridges : Graph.t -> int list
(** Edge ids whose removal disconnects their component (Tarjan low-link). *)
