(** The SPF-based baseline protocol (PIM-SM-style joins over the underlying
    unicast shortest paths), the comparison point of §4.

    A joining member computes its unicast shortest path towards the source
    and sends the join along it; the join grafts at the first on-tree node it
    meets.

    Every entry point takes an optional [?ws] Dijkstra workspace; passing one
    makes the underlying searches allocation-free (see {!Smrp_graph.Dijkstra}).
    Omitting it allocates a private workspace per search. *)

val attach_path :
  ?filters:Failure.filters ->
  ?ws:Smrp_graph.Dijkstra.workspace ->
  Tree.t ->
  int ->
  int list * int list
(** [attach_path t nr] is the graft [(nodes, edges)] a PIM-style join would
    install: the suffix of [nr]'s unicast shortest path to the source from
    the first on-tree node encountered, returned merge-node first.  Returns
    [([nr], [])] when [nr] is already on-tree.  Raises [Invalid_argument]
    when the source is unreachable.  [filters] is the active failure,
    compiled ({!Failure.filters}, or a session's {!Failure.mask}). *)

val join : ?filters:Failure.filters -> ?ws:Smrp_graph.Dijkstra.workspace -> Tree.t -> int -> unit
(** [join t nr] subscribes [nr].  Raises [Invalid_argument] if [nr] is
    already a member or cannot reach the source. *)

val build :
  ?ws:Smrp_graph.Dijkstra.workspace ->
  Smrp_graph.Graph.t ->
  source:int ->
  members:int list ->
  Tree.t
(** Fresh tree with the given members joined in list order.  One workspace
    (supplied or private) is reused across every join. *)
