(** Failure-placement models for campaign cells — the third matrix axis.

    Recovery protocols behave qualitatively differently under correlated or
    regional outages than under the independent single failures of the
    paper's §4, so each model draws a {!Smrp_core.Failure.t} against the
    {e current} session tree:

    - {b Independent}: uniformly random links/nodes, the §4 baseline;
    - {b Correlated}: a burst of adjacent links (a shared-risk link group:
      a seed edge plus edges met by a breadth-first expansion from its
      endpoints);
    - {b Regional}: every node within a hop-radius ball around a random
      center fails — a regional outage / partition, defined graph-wise so
      it applies to topologies without plane coordinates;
    - {b Cascading}: a tree link fails, its traffic re-routes along the
      incremental-SPF detour, and the link now carrying the orphaned
      subtree fails next, up to a depth — overload propagation;
    - {b Adversarial}: greedy worst-case placement of a budget of tree-link
      failures maximizing members disrupted, refined by local-search swap
      passes (ties broken towards placements isolating more members, judged
      on the residual graph).  A candidate set's members disrupted is the
      sum of the tree's N_R (Eq. 1) over its links with no other chosen
      link above them, and its members isolated come from one
      breadth-first search over the graph without the set's links.

    All draws are pure functions of the supplied RNG, tree and graph.
    Cascading draws follow the incremental-SPF detour on one
    {!Smrp_graph.Dspf.t} held in a {!ws}, failed and restored around each
    draw and never rebuilt within an instance. *)

type model =
  | Independent of { events : int; elements : int }
  | Correlated of { events : int; burst : int }
  | Regional of { events : int; radius : int }
  | Cascading of { events : int; depth : int }
  | Adversarial of { events : int; budget : int; passes : int }

val events : model -> int
(** How many failure events the model injects per scenario instance. *)

type ws
(** Per-worker scratch: caches the incremental-SPF structure of the last
    (graph, source) pair a cascading draw met, with its failures applied
    and rolled back around each draw. *)

val create_ws : unit -> ws

val draw :
  ws -> model -> Smrp_rng.Rng.t -> Smrp_graph.Graph.t -> tree:Smrp_core.Tree.t ->
  Smrp_core.Failure.t option
(** Draw one failure event.  Never fails the source node.  [None] when the
    model has nothing to break (e.g. an adversarial or cascading draw
    against a tree with no edges). *)

val disrupted : Smrp_core.Tree.t -> Smrp_core.Failure.t -> int
(** Members losing data under the failure: the members no longer connected
    to the source over surviving tree links and nodes (members whose own
    router died included). *)
