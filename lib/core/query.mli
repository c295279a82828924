(** The partial-topology query scheme (§3.3.1).

    When a joining member lacks global topology knowledge, it asks each of
    its physical neighbours to forward a query along the neighbour's unicast
    shortest path towards the source; the first on-tree node met answers
    with its SHR.  The member then applies the usual selection criterion to
    this (possibly incomplete) candidate set, so the chosen path may be
    sub-optimal — the degradation quantified by the [query] ablation
    benchmark. *)

val candidates :
  ?ws:Smrp_graph.Dijkstra.workspace ->
  Tree.t ->
  joiner:int ->
  spf:float array ->
  Smrp.candidate list
(** One candidate per answering on-tree node (deduplicated, keeping the
    lowest-delay connection), ordered by merge-node id.  [spf] holds every
    node's unicast delay to the source over the whole graph (the queries
    know no failure): the [lower] array of each neighbour's
    {!Smrp_graph.Dijkstra.shortest_path}. *)

val join :
  ?d_thresh:float -> ?ws:Smrp_graph.Dijkstra.workspace -> ?spf:float array -> Tree.t -> int -> unit
(** SMRP join restricted to query-discovered candidates.  Falls back to the
    SPF join when no query is answered.  Raises [Invalid_argument] if the
    node is already a member or cannot reach the source.

    [spf] is {!candidates}'s, and the joiner's own entry is its D_SPF, as
    in {!Smrp.join}: a {!Session} reads it from its incremental source
    SPF.  Without it an off-tree joiner runs one source-rooted search
    first. *)

val build :
  ?d_thresh:float ->
  ?ws:Smrp_graph.Dijkstra.workspace ->
  Smrp_graph.Graph.t ->
  source:int ->
  members:int list ->
  Tree.t
