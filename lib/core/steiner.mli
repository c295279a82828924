(** A cost-minimising multicast baseline: the Takahashi–Matsuyama Steiner
    heuristic (iteratively connect the member closest to the current tree by
    a shortest path; 2-approximation of the minimum Steiner tree).

    §4.2 of the paper conjectures — citing Wei & Estrin [13] — that its
    SPF-based findings "are also applicable to the cost-minimizing multicast
    routing protocols".  This module provides the protocol needed to test
    that conjecture (see the [steiner] experiment). *)

val build : Smrp_graph.Graph.t -> source:int -> members:int list -> Tree.t
(** Full heuristic: repeatedly connect the currently-closest member, which
    is the classical Takahashi–Matsuyama order (independent of the caller's
    list order). *)
