(** The SPF-based baseline protocol (PIM-SM-style joins over the underlying
    unicast shortest paths), the comparison point of §4.

    A joining member computes its unicast shortest path towards the source
    and sends the join along it; the join grafts at the first on-tree node it
    meets.

    Every entry point takes an optional [?ws] Dijkstra workspace; passing one
    makes the underlying searches allocation-free (see {!Smrp_graph.Dijkstra}).
    Omitting it allocates a private workspace per search. *)

val graft_path : accept:(int -> bool) -> int list -> int list -> (int list * int list) option
(** [graft_path ~accept nodes edges] is where a join travelling the path
    [nodes] (with [edges] aligned pairwise, as
    {!Smrp_graph.Dijkstra.shortest_path} returns them) grafts: at the
    first node [accept] takes.  The graft [(nodes, edges)] runs from that
    node back to the path's first node, merge node first; [None] when no
    node of the path is accepted.  The one graft walk: PIM-style joins
    ({!attach_path}), query answers ({!Query.candidates}) and global
    detours ({!Recovery.global_detour}) all take it. *)

val attach_path :
  ?filters:Failure.filters ->
  ?ws:Smrp_graph.Dijkstra.workspace ->
  Tree.t ->
  int ->
  spf:float array ->
  int list * int list
(** [attach_path t nr ~spf] is the graft [(nodes, edges)] a PIM-style join
    would install: the suffix of [nr]'s unicast shortest path to the source
    from the first on-tree node encountered, returned merge-node first.
    Returns [([nr], [])] when [nr] is already on-tree.  Raises
    [Invalid_argument] when the source is unreachable.  [filters] is the
    active failure, compiled ({!Failure.filters}, or a session's
    {!Failure.mask}).

    [spf] holds every node's unicast delay to the source over exactly the
    graph the join searches: the surviving network under [filters], or the
    whole graph without them ({!Smrp.source_spf} with the same [filters],
    or a session's {!Smrp_graph.Dspf} distances).  It is the [lower] array
    of {!Smrp_graph.Dijkstra.shortest_path}, so the search settles only the
    corridor of shortest paths from [nr] to the source. *)

val join :
  ?filters:Failure.filters ->
  ?ws:Smrp_graph.Dijkstra.workspace ->
  ?spf:float array ->
  Tree.t ->
  int ->
  unit
(** [join t nr] subscribes [nr].  Raises [Invalid_argument] if [nr] is
    already a member or cannot reach the source.  [spf] is
    {!attach_path}'s; without it an off-tree joiner runs one source-rooted
    search under [filters] first. *)

val build :
  ?ws:Smrp_graph.Dijkstra.workspace ->
  Smrp_graph.Graph.t ->
  source:int ->
  members:int list ->
  Tree.t
(** Fresh tree with the given members joined in list order.  One workspace
    (supplied or private) is reused across every join, and one
    source-rooted search supplies every join's [spf]. *)
