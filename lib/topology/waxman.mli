(** Waxman random topologies (Waxman 1988), as generated by GT-ITM and used in
    §4.1 of the paper.

    Nodes are placed uniformly at random in the unit square; the edge between
    [u] and [v] exists with probability [alpha * exp (-d(u,v) / (beta * l))]
    where [d] is the Euclidean distance and [l] the maximum possible distance
    (the square's diagonal).  [alpha] controls edge density (the paper's sweep
    parameter); [beta] the reach of long edges (fixed in the paper).

    Link delay is the Euclidean distance between the endpoints, floored at
    {!min_delay} so that no link is free; link cost equals delay (§4.2 treats
    the same link metric as both delay and cost). *)

type t = {
  graph : Smrp_graph.Graph.t;
  positions : (float * float) array;
  repaired_edges : int list;
      (** Edge ids added by the connectivity repair pass (empty when the raw
          draw was already connected). *)
}

type link_delay = [ `Euclidean | `Unit | `Uniform of float * float ]
(** How link delays (= link costs, §4.2) are assigned:
    - [`Euclidean]: the geometric distance between the endpoints (ns-2-style
      propagation delay);
    - [`Unit]: hop-count metric;
    - [`Uniform (lo, hi)]: GT-ITM-style random link weights. *)

val min_delay : float

val generate :
  ?link_delay:link_delay -> Smrp_rng.Rng.t -> n:int -> alpha:float -> beta:float -> t
(** Draw one topology; [link_delay] defaults to [`Euclidean].  The result is
    always connected: components of the raw draw are stitched together by
    adding the shortest possible edge between the two closest components,
    repeatedly.  (GT-ITM simply discards disconnected draws; stitching keeps
    generation O(n²) and deterministic in the number of RNG draws.)

    Draw order: [2n] draws place the nodes (x then y, node by node); then
    each pair [u < v], in lexicographic order, takes one draw [r], plus one
    more for its delay under [`Uniform] when the edge is added; then the
    stitching pass draws once per added edge under [`Uniform].  A pair is
    an edge when [r < p].  Since [p <= alpha], a draw at or above [alpha]
    rejects the pair before its distance is computed; the stream of draws
    is the same as computing [p] first. *)

val calibrate_alpha :
  Smrp_rng.Rng.t -> n:int -> beta:float -> target_degree:float -> float
(** Binary-search the [alpha] whose expected average degree matches
    [target_degree] (used for the §4.3.3 "degree up to 10" data point). *)
