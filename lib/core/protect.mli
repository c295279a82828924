(** Precomputed local-detour protection tables.

    For every tree edge — keyed by CSR edge id in flat arrays — the table
    precomputes the {e branch detour} that re-attaches the subtree below
    the edge if the edge fails ({e link protection}) and if the edge's
    upstream endpoint fails ({e node protection}; inapplicable when that
    endpoint is the source).  At failure time {!Session} answers the
    recovery query with array reads instead of per-member candidate
    searches; the entry's semantics are exactly
    {!Recovery.branch_detour}'s, which the fuzz oracle recomputes and
    compares against.

    {b Invalidation} is wholesale and O(1): any tree mutation can improve
    any entry's optimum (a membership change anywhere adds or removes
    merge targets), so {!invalidate} just bumps a version counter.  Stale
    entries refresh lazily on lookup, one nearest-target search each.
    {!Session} relies on that alone and never calls {!prepare}: it reads
    the tables only for a session's first failure.  {!prepare} refreshes
    every tree-edge entry eagerly, for callers that want the whole table
    warm, such as benchmarks. *)

type t

type stats = { lookups : int; recomputes : int }

type entry = {
  root : int;  (** The orphaned branch's root (downstream endpoint). *)
  merge : int;  (** Surviving on-tree merge target. *)
  recovery_distance : float;
  path_nodes : int list;  (** [root ... merge], interior strictly off-tree. *)
  path_edges : int list;
}

val create : Tree.t -> t
(** No entries are built until first use ({!prepare} or a lookup). *)

val invalidate : t -> unit
(** O(1); call after any mutation of the protected tree. *)

val retarget : t -> Tree.t -> unit
(** Point the table at a replacement tree (repair rebuilds swap the tree
    object); implies {!invalidate}. *)

val prepare : t -> unit
(** Eagerly refresh the link and node entries of every current tree edge
    (one nearest-target search each) and compact the path arenas.  No
    library code calls it; lookups refresh the entries they read. *)

val link_lookup : t -> int -> entry option
(** Detour for the branch below edge [eid] should [eid] fail.  [None] when
    the branch is unprotectable (no surviving connection) or [eid] is not
    a tree edge.  Refreshes the entry first if stale. *)

val node_lookup : t -> int -> entry option
(** Detour for the branch below edge [eid] should the edge's {e upstream
    endpoint} fail.  [None] also when that endpoint is the source. *)

val link_rd : t -> int -> float
(** Raw array read of the link entry's recovery distance ([infinity] when
    absent) — no staleness check; only meaningful after {!prepare} with no
    intervening mutation.  This is the O(1) hot path the bench measures. *)

val stats : t -> stats
