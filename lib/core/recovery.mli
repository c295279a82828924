(** Service restoration after a persistent failure (§3.1, §4.3.1).

    Two strategies are compared throughout the paper:

    - {b local detour}: the disconnected member re-attaches to the nearest
      on-tree node that still receives data (SMRP's recovery architecture);
    - {b global detour}: the member re-runs the SPF join over the surviving
      network, as PIM/MOSPF do once unicast routing re-converges; the new
      path grafts at the first surviving on-tree node it meets.

    Either way the {b recovery distance} [RD] counts only the delay of the
    links newly brought into the tree (the [RD_D = 2] example of §3.1).

    The local and branch detours run {!Smrp_graph.Dijkstra.nearest}: the
    search stops at the nearest merge target, so it costs the ball around
    the answer rather than the whole graph.  The global detour's
    {!Smrp_graph.Dijkstra.shortest_path} is goal-directed by the source SPF
    over the surviving network, so it settles only the corridor of
    shortest paths from the member to the source.  A one-off search
    compiles the failure once ({!Failure.filters}) and computes the tree's
    surviving set itself.
    Staged repair ({!Session.fail}) searches for every pending member of
    one tree, so it passes [~filters] (its session's {!Failure.mask}) and
    [~surviving] (computed once per graft) instead. *)

type detour = {
  member : int;
  merge : int;  (** Surviving on-tree node where service is re-joined. *)
  path_nodes : int list;  (** New links only: [member ... merge]. *)
  path_edges : int list;
  recovery_distance : float;  (** [RD_R]: delay over [path_edges]. *)
  new_total_delay : float;  (** End-to-end delay after restoration. *)
}

val local_detour :
  ?ws:Smrp_graph.Dijkstra.workspace ->
  ?filters:Failure.filters ->
  ?surviving:bool array ->
  Tree.t ->
  Failure.t ->
  member:int ->
  detour option
(** Shortest connection from the receiver to any surviving on-tree node over
    the surviving network.  [None] if the receiver is isolated.  A receiver
    that still gets data receives the trivial detour ([merge = member],
    [recovery_distance = 0]).  [member] need not currently be subscribed —
    staged repair ({!Session.fail}) re-attaches receivers one at a time.

    [filters], when given, must answer as [Failure.filters g f], and
    [surviving] must equal [Failure.tree_connected t f]: they replace the
    search's own compile and tree walk. *)

val global_detour :
  ?ws:Smrp_graph.Dijkstra.workspace ->
  ?filters:Failure.filters ->
  ?surviving:bool array ->
  Tree.t ->
  Failure.t ->
  member:int ->
  spf:float array ->
  detour option
(** SPF re-join over the surviving network.  [filters] and [surviving] as
    in {!local_detour}.

    [spf] holds every node's unicast delay to the source over the surviving
    network, the failure [f] applied ([infinity] where there is none):
    {!Smrp.source_spf} with [f]'s filters, or a session's
    {!Smrp_graph.Dspf} distances once every active failure reached them.
    A pre-failure array breaks the contract of
    {!Smrp_graph.Dijkstra.shortest_path} and can lose the path. *)

val branch_detour :
  ?ws:Smrp_graph.Dijkstra.workspace ->
  Tree.t ->
  Failure.t ->
  root:int ->
  eligible:(int -> bool) ->
  detour option
(** Re-attachment path of a whole orphaned subtree: the shortest connection
    from the subtree's [root] to any [eligible] merge target, whose interior
    is strictly off-tree (footnote-4 semantics, so the merge point is the
    true merge point).  [eligible] marks merge targets (on-tree, outside
    the orphaned region, surviving the post-failure pruning — the caller
    supplies this); on-tree nodes that are not eligible — the orphaned
    region included — are neither traversed nor merged into.  Ties on recovery
    distance resolve to the smallest merge id, as in {!local_detour}.  The
    result's [member] field carries [root].

    This is the computation behind the {!Protect} tables; the fuzz harness
    checks them against its own exhaustive search. *)

val surviving_tree : Tree.t -> Failure.t -> Tree.t
(** A fresh tree over the same graph containing exactly the structure (and
    members) that still receives data under the failure — the starting point
    for staged repair. *)
