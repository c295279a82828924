(** Incremental single-source shortest paths (dynamic SPF).

    Maintains the source-rooted shortest-path tree of a frozen {!Graph.t}
    under edge and node failures and edge restorations, using the
    classic affected-subtree approach: a failure orphans exactly the
    subtree below the failed element, which is re-attached by boundary-edge
    relaxation from a workspace heap without touching the unaffected
    region.  An edge restoration runs the dual grow-cascade.  A failed node
    stays failed: no caller restores one.

    Distances are bit-identical to a fresh {!Dijkstra.run_reference} over
    the surviving elements after every mutation — the differential suite in
    [test/test_dspf.ml] pins this exactly (no epsilon).

    The structure snapshots the CSR at {!create}; the underlying graph
    must not gain edges while the structure is live.  Failure state lives
    in the structure as an overlay — the graph itself is never mutated. *)

type t

type stats = {
  ops : int;  (** mutations applied since creation *)
  touched : int;
      (** total nodes whose tree state any repair rewrote — the locality
          evidence: compare against [ops × n] for full recomputes *)
}

val create : Graph.t -> source:int -> t
(** Freezes the graph and computes the initial tree.  Raises
    [Invalid_argument] if [source] is out of range. *)

(** {1 Mutations}

    All mutations are idempotent: failing a dead element or restoring a
    live edge is a no-op. *)

val fail_edge : t -> int -> unit
(** Remove edge [eid] from the overlay.  A non-tree edge only flips the
    flag; a tree edge triggers an affected-subtree repair. *)

val restore_edge : t -> int -> unit
(** Revive edge [eid] and cascade any strict improvements it enables. *)

val fail_node : t -> int -> unit
(** Remove a node and all its incident paths.  Failing the source empties
    the tree. *)

(** {1 Queries} *)

val distances : t -> float array
(** Every node's distance, [infinity] when unreachable or dead: the
    structure's own array, borrowed.  It changes with the next mutation,
    and callers must not write it. *)

val reachable : t -> int -> bool

val parent : t -> int -> int
(** Tree parent, [-1] for the source and unreachable nodes. *)

val parent_edge : t -> int -> int
(** Edge id to the parent, [-1] for the source and unreachable nodes. *)

val stats : t -> stats

(** {1 Self-check} *)

val verify : t -> bool
(** Recompute from scratch over the same overlay and compare: distances
    bit-identical, every parent pointer certifying its node's distance
    over a live edge.  Allocates; test/debug only. *)
