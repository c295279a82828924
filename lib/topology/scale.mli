(** Streaming Waxman generation for large [n] (10⁵–10⁶ nodes).

    {!Waxman.draw} scans every node pair — O(n²) probability draws and a
    tuple-per-node position array — which caps it at a few thousand nodes.
    This module draws the same family CSR-natively:

    - node coordinates live in two flat float64 bigarrays;
    - the pair scan is bucketed on a uniform grid sized to the probability
      cutoff, so only geometrically plausible pairs are examined;
    - a pair inside the cutoff draws first and is rejected against a table
      of upper bounds on its edge probability, indexed by its squared
      distance, before its [sqrt] and [exp]; the draw and the probability
      still decide every edge, so the table changes no edge, delay or
      draw;
    - connectivity repair unions components along locally-nearest links
      found by expanding ring search instead of the O(n²·components)
      closest-pair scan;
    - link delays come from {!Waxman.delay}, as in the dense draw.

    Transit–stub graphs need no streaming twin: {!Transit_stub.generate}
    is already linear in the node count, because each stub is a dense draw
    over a constant number of nodes.

    The price of the grid cutoff is a truncated tail: pairs whose edge
    probability falls below [p_floor] are never sampled.  The expected
    number of edges lost is below [n²/2 · p_floor] (default [p_floor]
    = 1e-9: under one expected edge up to n = 4·10⁴, ~0.5 at n = 10⁶ —
    and those edges are the longest, least likely ones).  Within the
    cutoff the draw is exact Bernoulli, per pair, like the dense
    generator.  Draw order differs from {!Waxman.generate}, so the two
    produce different (equally distributed) topologies from equal seeds. *)

type t = {
  graph : Smrp_graph.Graph.t;  (** Frozen (CSR built) before return. *)
  missed_edge_bound : float;
      (** Upper bound on the expected number of edges lost to the cutoff
          (0 when the cutoff covers the whole square). *)
}

val degree_params : n:int -> target_degree:float -> float * float
(** [(alpha, beta)] whose expected average degree is [target_degree] at
    size [n], from the short-range closed form
    [E(deg) ≈ (n-1) · alpha · 2π(beta·l)²] — the knob that keeps degree
    constant as [n] grows, where {!Waxman.calibrate_alpha}'s empirical
    bisection would need full draws. *)

val waxman :
  ?link_delay:Waxman.link_delay ->
  ?p_floor:float ->
  Smrp_rng.Rng.t ->
  n:int ->
  alpha:float ->
  beta:float ->
  t
(** Grid-bucketed Waxman draw; [link_delay] defaults to [`Euclidean],
    [p_floor] to 1e-9.  The result is always connected.  Work is O(n +
    sampled pairs): with degree held constant via {!degree_params},
    generation at n = 10⁵–10⁶ runs in seconds where the dense scan would
    take hours. *)
