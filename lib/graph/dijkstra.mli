(** Single-source shortest paths over edge delays, with the filtered and
    absorbing variants the SMRP protocol needs.

    - [node_ok] / [edge_ok] restrict the search to the surviving part of the
      graph under a failure scenario (a node or edge that fails is filtered
      out rather than removed, so edge and node ids stay stable).
    - [absorb] marks nodes that may be *reached* but never *relaxed through*
      (except when one is the source).  Running with [absorb = on-tree] from a
      joining node yields, for every on-tree node [R], the shortest path from
      the joiner to [R] whose interior avoids the tree — i.e. the unique
      candidate connection for which [R] is the true merge point (paper
      footnote 4). *)

type workspace
(** Reusable scratch state (distance/parent/stamp arrays plus an
    int-specialised binary heap).  A [run] that borrows a workspace allocates
    nothing on the search path; repeated runs clear state lazily by bumping
    an epoch counter rather than re-zeroing arrays.  A workspace belongs to
    one domain at a time — create one per worker, never share concurrently. *)

val workspace : ?capacity:int -> unit -> workspace
(** [workspace ~capacity:n ()] pre-sizes for graphs of up to [n] nodes; it
    grows on demand if a larger graph is searched. *)

val set_flight : workspace -> Smrp_obs.Flight.recorder -> unit
(** Install a flight recorder on the workspace: every subsequent {!run}
    borrowing it writes one [Flight.span_dijkstra] span record (b = source
    and node count, packed).  The recorder rides the workspace because a
    workspace is domain-private by contract — install the calling domain's
    recorder.  With the default {!Smrp_obs.Flight.null} a run pays one
    branch. *)

val workspace_flight : workspace -> Smrp_obs.Flight.recorder

type result

val run :
  ?node_ok:(int -> bool) ->
  ?edge_ok:(int -> bool) ->
  ?absorb:(int -> bool) ->
  ?bound:float * float array ->
  ?workspace:workspace ->
  Graph.t ->
  source:int ->
  result
(** With [?workspace], the result {e borrows} the workspace arrays and is
    valid only until the next [run] on the same workspace; accessors raise
    [Invalid_argument] on a stale result.  Without it, a private workspace is
    allocated and the result stays valid indefinitely.

    [bound = (limit, lower)] makes the search goal-directed.  [lower.(v)]
    bounds from below what remains from [v] to the search's goal; it must
    be the shortest-path distances from one root (the goal, [infinity]
    where unreachable) over an undirected graph that contains every edge
    this search may relax.  The search never pushes a node whose tentative
    distance plus [lower.(v)] exceeds [limit] (up to a relative rounding
    slack of 1e-9).  Every node [v] whose distance [d] satisfies
    [d +. lower.(v) <= limit] is still settled, with the distance and
    parent the search without [bound] gives it: a node on a shortest path
    to it, and every tight predecessor, passes the test by the triangle
    inequality, and dropping the other pushes keeps the order in which the
    kept entries pop.  Beyond the bound a node may read as unreachable or
    with a longer distance, so callers must ignore results there.  Such a
    run records the nodes it settles, for {!settled_by_id}; the loops
    without [bound] record nothing.  Raises [Invalid_argument] when
    [lower] is shorter than the node count. *)

type nearest = {
  target : int;
  dist : float;  (** Shortest-path delay from the source to [target]. *)
  nodes : int list;  (** [source ... target], inclusive. *)
  edges : int list;  (** Edge ids along [nodes]. *)
}

val nearest :
  ?node_ok:(int -> bool) ->
  ?edge_ok:(int -> bool) ->
  ?workspace:workspace ->
  Graph.t ->
  source:int ->
  target:(int -> bool) ->
  nearest option
(** The closest [target] node to [source] and one shortest path to it, or
    [None] when no target is reachable.  Targets absorb (they are reached
    but never relaxed through, as with [run ~absorb:target]); the source
    itself is never a target.  Among targets at the minimum distance the
    smallest id wins.  The answer — target, distance and path — is exactly
    what {!run} with [~absorb:target] followed by a scan of every reachable
    target would give, but the search stops once the heap minimum exceeds
    the nearest target's distance, so it pays only for the ball around its
    answer.  It writes the same [Flight.span_dijkstra] record as {!run};
    the workspace's previous result is invalidated. *)

val run_reference :
  ?node_ok:(int -> bool) ->
  ?edge_ok:(int -> bool) ->
  ?absorb:(int -> bool) ->
  Graph.t ->
  source:int ->
  result
(** The retained pre-CSR implementation (adjacency lists, boxed polymorphic
    heap, fresh arrays per call).  Kept as the differential-testing oracle:
    for any graph, filters and source it must agree with {!run} exactly —
    same distances, same parents, same tie-breaks. *)

val distance : result -> int -> float option
(** Shortest-path delay, [None] if unreachable. *)

val reachable : result -> int -> bool

val settled_by_id : (int -> bool) -> result -> int array
(** [settled_by_id keep r] is the nodes a [~bound] run settled that satisfy
    [keep], in ascending id order; [keep] must not run a search on the
    same workspace.  Raises [Invalid_argument] on a run without
    [bound]. *)

val distances : result -> float array
(** A fresh array of every node's distance, [infinity] where unreachable:
    the [lower] array of a bounded run rooted at this run's source. *)

val unsafe_distance : result -> int -> float
(** The raw distance cell of a node, with no freshness or reachability
    check: meaningful only when {!reachable} just returned [true] for the
    same result.  Exists for scan loops that have already filtered on
    {!reachable} and must not allocate an option per node. *)

val path_nodes : result -> int -> int list option
(** Node sequence from the source to the target, inclusive. *)

val path_edges : result -> int -> int list option
(** Edge-id sequence from the source to the target. *)

val shortest_path :
  ?node_ok:(int -> bool) ->
  ?edge_ok:(int -> bool) ->
  ?workspace:workspace ->
  Graph.t ->
  src:int ->
  dst:int ->
  lower:float array ->
  (float * int list * int list) option
(** [(delay, nodes, edge ids)] of one shortest [src]→[dst] path: the one
    {!run} from [src] would give, or [None] when [dst] is out of reach.
    [src = dst] is the trivial path.

    [lower] must hold the shortest-path distances from [dst] ([infinity]
    where unreachable) over exactly the graph this search relaxes: the same
    graph under the same [node_ok] and [edge_ok].  The search is {!run}
    with [~bound:(lower.(src), lower)], which settles only the nodes on
    shortest [src]→[dst] paths, and the path is read back from [dst].  A
    wrong array silently changes the answer: distances over a larger graph
    (a stale pre-failure SPF) can put the limit below [src]'s real
    distance, and distances over a smaller one are no lower bounds at all.
    Raises [Invalid_argument] when [src] or [dst] is out of range, [src]
    is filtered out or [lower] is shorter than the node count. *)
