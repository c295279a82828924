(** The other flat random-graph families of Zegura, Calvert & Donahoo
    (IEEE/ACM ToN 1997 — the paper's reference [7], which it cites to argue
    that a target node degree can be reached under different models).  Used
    by the topology-family experiment to check that SMRP's advantage is not
    an artefact of the Waxman model.

    Zegura et al. treat Waxman, pure-random and locality graphs as one flat
    family that differs only in the edge probability, and so does this
    module: each model is {!Waxman.draw} with its own probability, so
    positions, draw order, link delays and the connectivity stitching are
    those of {!Waxman.generate}. *)

type t = Waxman.t

val pure_random : ?link_delay:Waxman.link_delay -> Smrp_rng.Rng.t -> n:int -> p:float -> t
(** G(n, p): every pair connected with probability [p], independent of
    distance.  Nodes still carry plane positions so Euclidean delays remain
    meaningful.  With [p = 0] no pair draws. *)

val locality :
  ?link_delay:Waxman.link_delay ->
  Smrp_rng.Rng.t ->
  n:int ->
  radius:float ->
  p_near:float ->
  p_far:float ->
  t
(** Zegura's locality model: pairs closer than [radius] connect with
    probability [p_near], the rest with [p_far].  With [p_near >= p_far >
    0] every pair draws, and one at or above [p_near] rejects the pair
    without its distance: the probability is non-increasing in the
    distance, as {!Waxman.draw}'s bound requires.  Otherwise the distance
    is computed first: when one probability is 0 its pairs draw nothing,
    and with [0 < p_near < p_far] every pair draws, as it would with a
    bound. *)

val probability_for_degree : n:int -> target_degree:float -> float
(** The [p] giving the target expected average degree in G(n, p). *)
