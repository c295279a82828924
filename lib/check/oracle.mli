(** Invariant oracles for the fuzzing harness.

    Every oracle recomputes its ground truth from scratch, independently of
    the incremental bookkeeping the protocol stack maintains (the SHR cache,
    [N_R] counters, cached delays, CSR Dijkstra): an oracle that trusted the
    hot path it is auditing would be worthless.  The differential oracles
    therefore run on {!Smrp_graph.Dijkstra.run_reference}, the retained
    pre-CSR implementation. *)

type violation = { oracle : string; message : string }

(** {2 From-scratch recomputation} *)

val recompute_n_r : Smrp_core.Tree.t -> int array
(** [N_R] per node, recomputed by walking every member's tree path (Eq. 1
    ground truth); zero off-tree. *)

val recompute_shr : Smrp_core.Tree.t -> int array
(** [SHR(S,R)] per Eq. 2 over {!recompute_n_r}; meaningful for on-tree
    nodes. *)

(** {2 Structural oracles} (run after every event) *)

val structure : Smrp_core.Tree.t -> violation option
(** {!Smrp_core.Tree.validate}: acyclic, source-rooted, parent/child and
    delay consistency, pruning discipline. *)

val members_connected : Smrp_core.Tree.t -> violation option
(** Every member is on-tree and its tree path ends at the source. *)

val bookkeeping : Smrp_core.Tree.t -> violation option
(** The tree's incremental [N_R] and [SHR] equal the from-scratch
    recomputation, node by node. *)

val avoids_failure : Smrp_core.Tree.t -> Smrp_core.Failure.t -> violation option
(** No failed node or link is part of the tree (persistent failures must
    never be routed through by joins, repairs or reshaping). *)

(** {2 Join differential oracle} *)

type naive_candidate = {
  merge : int;
  attach_nodes : int list;  (** The connection, [merge] first, the joiner last. *)
  attach_edges : int list;
  attach_delay : float;
  total_delay : float;
  shr : int;
}

val naive_candidates :
  ?failure:Smrp_core.Failure.t ->
  ?exclude:(int -> bool) ->
  Smrp_core.Tree.t ->
  joiner:int ->
  naive_candidate list
(** The exhaustive merge-point scan of §3.2.1, computed with the reference
    Dijkstra and the recomputed SHR: one candidate per on-tree node
    admitting a tree-avoiding connection, ordered by merge id, each with
    the reference search's path.  [failure] and [exclude] remove nodes from
    both traversal and merging ([failure] links too). *)

val naive_select :
  d_thresh:float -> spf_distance:float -> naive_candidate list -> naive_candidate option
(** The Path Selection Criterion replicated naively (bound filter, then
    minimise [(SHR, delay)] within 1e-9, the first in list order winning
    ties; fallback to the lowest delay) over a list in ascending merge
    order, mirroring [Smrp.select] and [Smrp.attach_path] tie-break for
    tie-break. *)

(** {2 Detour differential oracle} *)

val naive_nearest :
  ?node_ok:(int -> bool) ->
  ?edge_ok:(int -> bool) ->
  Smrp_graph.Graph.t ->
  source:int ->
  target:(int -> bool) ->
  Smrp_graph.Dijkstra.nearest option
(** {!Smrp_graph.Dijkstra.nearest} recomputed the slow way: the reference
    Dijkstra over the whole graph with the targets absorbing, then an
    exhaustive descending scan of every reachable target, ties to the
    smallest id.  The tables' and the detour searches' answers must equal
    it exactly — target, distance and path. *)

(** {2 Repair oracle} *)

val repair_replay :
  pre:Smrp_core.Tree.t ->
  failure:Smrp_core.Failure.t ->
  repairs:Smrp_core.Session.repair list ->
  post:Smrp_core.Tree.t ->
  lost:int list ->
  violation option
(** Audit one {!Smrp_core.Session.fail} episode against the pre-failure tree:

    - each detour's [RD_R] equals the delay over its own path edges;
    - each detour uses only surviving nodes/links, and only links that are
      {e new} at the moment it grafts (replaying the staged repair from a
      freshly rebuilt surviving tree);
    - the replayed tree matches [post] edge-for-edge and member-for-member;
    - members are conserved: repaired + lost = affected + dead. *)

val protected_replay :
  pre:Smrp_core.Tree.t ->
  failure:Smrp_core.Failure.t ->
  repairs:Smrp_core.Session.repair list ->
  post:Smrp_core.Tree.t ->
  lost:int list ->
  violation option
(** Audit a table-lookup repair episode (every repair carries the
    [`Protected] strategy; each one re-attached a whole orphaned branch):

    - the failure has the shape the fast path is allowed to answer (one
      link on a tree edge, or one non-source on-tree node);
    - exactly the orphaned branch roots were repaired, once each;
    - each detour's [RD_R] equals the delay over its path edges, the path
      survives the failure, and [new_total_delay] is consistent with the
      repaired tree;
    - differentially, each detour equals (merge point, [RD_R] and path) a
      from-scratch branch search over the pre-failure tree: the reference
      Dijkstra ({!Smrp_graph.Dijkstra.run_reference}) and an exhaustive
      descending scan of the merge targets, with eligibility — on-tree,
      outside the orphaned region, alive, still serving members after the
      pruning — recomputed naively, sharing none of the tables' cached
      Euler tour, arenas or version stamps, nor their nearest-target
      search;
    - nobody is lost but the failed routers themselves: the surviving
      member set is conserved wholesale. *)
