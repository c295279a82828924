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
  ?dist_bound:float ->
  ?workspace:workspace ->
  Graph.t ->
  source:int ->
  result
(** With [?workspace], the result {e borrows} the workspace arrays and is
    valid only until the next [run] on the same workspace; accessors raise
    [Invalid_argument] on a stale result.  Without it, a private workspace is
    allocated and the result stays valid indefinitely.

    [dist_bound] truncates the search: settling stops at the first node
    whose distance exceeds the bound.  Every node whose true distance is
    [<= dist_bound] is still settled with its exact distance and path;
    beyond the bound a node may read as unreachable or report a tentative
    (over-estimated) distance, so callers must ignore results past the
    bound. *)

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

val source : result -> int

val distance : result -> int -> float option
(** Shortest-path delay, [None] if unreachable. *)

val reachable : result -> int -> bool

val unsafe_distance : result -> int -> float
(** The raw distance cell of a node, with no freshness or reachability
    check: meaningful only when {!reachable} just returned [true] for the
    same result.  Exists for scan loops that have already filtered on
    {!reachable} and must not allocate an option per node. *)

val parent : result -> int -> int option
(** Predecessor on the shortest path tree. *)

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
  (float * int list * int list) option
(** [(delay, nodes, edge ids)] of one shortest [src]→[dst] path. *)
