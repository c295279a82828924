(** The Survivable Multicast Routing Protocol (§3.2).

    A joining member enumerates, for every on-tree node [R], the shortest
    connection whose interior avoids the tree (so [R] is the true merge
    point, paper footnote 4), and applies the Path Selection Criterion:

    - minimise [SHR(S,R)] over the candidate merge points;
    - subject to [total delay <= (1 + d_thresh) * D_SPF];
    - ties broken by total delay, then lowest node id (determinism).

    If no candidate meets the delay bound the member falls back to the
    lowest-delay candidate (equivalent to the SPF join; the paper does not
    discuss this corner, which arises when every bounded connection is
    blocked — e.g. extreme [d_thresh = 0]
    with a tree whose paths are all non-shortest). *)

type candidate = {
  merge : int;  (** The on-tree merge node [R_i]. *)
  attach_nodes : int list;  (** Path from [merge] to the joiner. *)
  attach_edges : int list;
  attach_delay : float;  (** Delay of the new links only. *)
  total_delay : float;  (** [attach_delay] + tree delay of [merge]. *)
  shr : int;  (** [SHR(S, merge)] in the current tree. *)
}

val default_d_thresh : float
(** 0.3, the paper's reference setting. *)

val spf_distance : ?failure:Failure.t -> Tree.t -> int -> float option
(** Unicast shortest-path delay from a node to the source, over the
    surviving network when [failure] is given. *)

val source_spf :
  ?filters:Failure.filters -> ?ws:Smrp_graph.Dijkstra.workspace -> Tree.t -> float array
(** Every node's unicast delay to the tree's source, over the surviving
    network when [filters] is given, [infinity] where there is none: one
    source-rooted search, the [spf] array {!attach_path},
    {!Reshape.try_reshape} and {!Reshape.stabilize} read. *)

val delay_bound : d_thresh:float -> float -> float
(** [delay_bound ~d_thresh d_spf] is the criterion's delay bound on a
    joiner whose unicast delay to the source is [d_spf]:
    [(1 + d_thresh) * d_spf] plus a 1e-9 slack.  A connection meets the
    bound when its total delay is at most this. *)

val improves : shr:int -> delay:float -> than_shr:int -> than_delay:float -> bool
(** The criterion's order without its id tie-break: a lower SHR, or the
    same SHR and a total delay lower by more than 1e-9.  A reshape
    switches only to a candidate that improves on its current
    attachment. *)

val select : ?d_thresh:float -> spf_distance:float -> candidate list -> candidate option
(** Apply the Path Selection Criterion to a list of candidates gathered
    elsewhere (the §3.3.1 query scheme's answers); [None] when the list is
    empty.  Falls back to the lowest-delay candidate when none meets the
    bound.  Ties on SHR and on delay (within 1e-9) go to the lower merge
    id. *)

val select_settled :
  Tree.t ->
  Smrp_graph.Dijkstra.result ->
  merge_ok:(int -> bool) ->
  discount:(int -> int) ->
  bound:float ->
  int
(** The criterion read off a candidate search: among the nodes the search
    settled that [merge_ok] accepts, and whose total delay (the search's
    distance plus the tree delay to the source) is at most [bound], the
    merge point {!select} would pick from their candidate list, with each
    one's SHR lowered by [discount].  The search must not have touched the
    tree's delays or SHR values since.  [-1] when none is inside the
    bound.  Every join decision ({!attach_path}) and every reshape
    decision ({!Reshape.try_reshape}, {!Reshape.stabilize}: [merge_ok]
    the detached view, [discount] the detached subtree's members on the
    merge point's source path) is this scan. *)

val attach_path :
  ?d_thresh:float ->
  ?filters:Failure.filters ->
  ?ws:Smrp_graph.Dijkstra.workspace ->
  Tree.t ->
  int ->
  spf:float array ->
  int list * int list
(** The full-knowledge join decision (§3.2.2): the path [(nodes, edges)] to
    graft, merge node first and the joiner last, as {!Spf.attach_path}
    returns it.  An on-tree joiner gets [([nr], [])].  The tree is not
    touched.

    [spf] holds every node's unicast SPF delay to the source ([infinity]
    where unreachable), over a graph that contains every link the search
    may use and every tree path: the surviving network when no tree path
    crosses a failed component, as in a {!Session}, or else the
    failure-free one.  The joiner's own entry is its D_SPF.

    The candidate search is goal-directed: it never goes where the delay
    so far plus the node's [spf] entry exceeds the bound
    [(1 + d_thresh) * D_SPF], since no connection through such a node can
    meet the bound.  Every merge point that meets the bound still gets the
    full search's distance and path.  Only when no merge point meets the
    bound does a full search run, to find the lowest-delay fallback.  Over
    the merge points the search finds, the choice is the one {!select}
    makes over their candidate list.

    [filters] removes failed components (joins arriving while failures are
    active): a failure compiled by {!Failure.filters}, or a session's
    {!Failure.mask}.  Raises [Invalid_argument] when [d_thresh] is negative
    or NaN, or when no connection to the tree exists. *)

val join :
  ?d_thresh:float ->
  ?filters:Failure.filters ->
  ?ws:Smrp_graph.Dijkstra.workspace ->
  ?spf:float array ->
  Tree.t ->
  int ->
  unit
(** SMRP join (§3.2.2): grafts what {!attach_path} returns and subscribes
    the joiner.  A joiner that is already on-tree (a relay) subscribes in
    place and keeps its existing path — a zero-cost join that may exceed
    the delay bound; a later reshaping pass can move it.  Raises
    [Invalid_argument] if the node is already a member, the source is out
    of its reach, or no connection to the tree exists.  [filters] is
    {!attach_path}'s.

    [spf] is {!attach_path}'s, when the caller already maintains it (every
    {!Session} keeps the source-rooted tree incrementally via
    {!Smrp_graph.Dspf}).  Without it the join runs one source-rooted
    search over the surviving network, so the tree must then not cross a
    failed component. *)

val build :
  ?d_thresh:float ->
  ?ws:Smrp_graph.Dijkstra.workspace ->
  Smrp_graph.Graph.t ->
  source:int ->
  members:int list ->
  Tree.t
(** Fresh tree with the given members joined in list order.  One workspace
    (supplied or private) is reused across every join. *)
