(** Waxman random topologies (Waxman 1988), as generated by GT-ITM and used in
    §4.1 of the paper, and the dense flat draw they share with the other
    flat models of {!Flat_models}.

    Nodes are placed uniformly at random in the unit square; the edge between
    [u] and [v] exists with probability [alpha * exp (-d(u,v) / (beta * l))]
    where [d] is the Euclidean distance and [l] the maximum possible distance
    (the square's diagonal).  [alpha] controls edge density (the paper's sweep
    parameter); [beta] the reach of long edges (fixed in the paper).

    Link delay is the Euclidean distance between the endpoints, floored at
    0.01 so that no link is free; link cost equals delay (§4.2 treats the
    same link metric as both delay and cost). *)

type t = { graph : Smrp_graph.Graph.t; positions : (float * float) array }

type link_delay = [ `Euclidean | `Unit | `Uniform of float * float ]
(** How link delays (= link costs, §4.2) are assigned:
    - [`Euclidean]: the geometric distance between the endpoints (ns-2-style
      propagation delay);
    - [`Unit]: hop-count metric;
    - [`Uniform (lo, hi)]: GT-ITM-style random link weights. *)

val delay : link_delay -> Smrp_rng.Rng.t -> float -> float
(** [delay m] checks [m]'s range ([`Uniform (lo, hi)] needs
    [0 < lo <= hi < infinity]) and returns the delay of a new link of
    geometric length [d]: [delay m rng d] is [max 0.01 d] under
    [`Euclidean], 1 under [`Unit], and one draw from [rng] in [[lo, hi)]
    under [`Uniform].  Every generator applies it to [m] before its first
    draw, so a bad range fails even when no link is added. *)

val draw :
  link_delay:link_delay ->
  Smrp_rng.Rng.t ->
  n:int ->
  bound:float option ->
  edge_probability:(float -> float) ->
  t
(** The dense flat draw: {!generate} and the {!Flat_models} families differ
    only in the [edge_probability d] they pass, the probability that a pair
    at Euclidean distance [d] is an edge.  The result is always connected:
    components of the raw draw are stitched together by adding the shortest
    possible edge between the two closest components, repeatedly.  (GT-ITM
    simply discards disconnected draws; stitching keeps generation O(n²) and
    deterministic in the number of RNG draws.)

    Draw order: [2n] draws place the nodes (x then y, node by node); then
    each pair [u < v], in lexicographic order, takes one draw [r], plus one
    more for its delay under [`Uniform] when the edge is added; then the
    stitching pass draws once per added edge under [`Uniform].  A pair is
    an edge when [r < p], where [p] is [edge_probability] at the pair's
    distance [sqrt ((dx ** 2.) +. (dy ** 2.))], which is also an added
    edge's Euclidean delay.  [bound = Some b] bounds every pair's
    probability by [b]: every pair draws, and a draw at or above [b]
    rejects the pair before its distance and probability are computed.
    [Some b] also promises that [edge_probability] is non-increasing in the
    distance.  A draw that passes [b] is then first compared with the
    probability at the distance from plain products ([dx *. dx]), taken
    1e-12 closer and raised by 1e-12, and a draw at or above it rejects the
    pair without the two [**] calls.  The two distances differ by a few
    ulps, so the slack makes that probability at least the one at the [**]
    distance: the reject drops only pairs the [**] distance rejects.  With
    [None] the probability comes first, and a pair whose probability is 0
    draws nothing.  The two take the same draws when no pair's probability
    is 0. *)

val generate :
  ?link_delay:link_delay -> Smrp_rng.Rng.t -> n:int -> alpha:float -> beta:float -> t
(** Draw one Waxman topology with {!draw} and [bound = Some alpha];
    [link_delay] defaults to [`Euclidean]. *)

val calibrate_alpha :
  Smrp_rng.Rng.t -> n:int -> beta:float -> target_degree:float -> float
(** Binary-search the [alpha] whose expected average degree matches
    [target_degree] (used for the §4.3.3 "degree up to 10" data point). *)
