(** The shared multicast tree and its SMRP bookkeeping (§3.2.1).

    A tree lives over a fixed {!Smrp_graph.Graph.t} and is rooted at the
    multicast source.  Every on-tree node [R] carries the state the paper
    keeps at routers:

    - its upstream node [R_u] (parent) and the connecting link;
    - [N_R], the number of members in the subtree rooted at [R];
    - its delay to the source along the tree.

    [SHR(S,R) = Σ N_{R'} over the on-tree path S→R excluding S] (Eq. 2) is
    derived on demand by walking the upstream path, exactly as routers
    accumulate it hop by hop.

    Nodes can be *members* (receivers) and/or *relays*; interior relays with
    no remaining members downstream are pruned eagerly, mirroring the
    [Leave_Req] processing of §3.2.2. *)

type t

val create : Smrp_graph.Graph.t -> source:int -> t
(** A tree containing only the source. *)

val graph : t -> Smrp_graph.Graph.t

val source : t -> int

val copy : t -> t
(** Independent deep copy (the underlying graph is shared).  Mutating the
    copy never affects the original — the building block for benchmark
    closures and differential tests that replay the same tree repeatedly. *)

val is_on_tree : t -> int -> bool

val is_member : t -> int -> bool

val member_count : t -> int

val members : t -> int list
(** In increasing node order. *)

val on_tree_nodes : t -> int list
(** In increasing node order; always includes the source. *)

val parent : t -> int -> int option
(** Upstream node; [None] for the source. *)

val parent_id : t -> int -> int
(** Upstream node as a raw id, [-1] for the source or an off-tree node —
    the option-free variant for hot parent walks. *)

val parent_edge_id : t -> int -> int
(** Upstream edge id, [-1] when there is none. *)

val parent_edge : t -> int -> int option

val children : t -> int -> int list

val subtree_members : t -> int -> int
(** [N_R].  Zero for off-tree nodes. *)

val delay_to_source : t -> int -> float
(** On-tree delay from the node to the source.
    Raises [Invalid_argument] for off-tree nodes. *)

val shr : t -> int -> int
(** [SHR(S,R)] per Eq. 2.  [shr t (source t) = 0].  O(1) amortised: values
    are cached tree-wide and rebuilt in one pass after a mutation, so a scan
    that reads the SHR of every on-tree node (a join's merge-point scan, a
    reshape sweep's cache refresh) stays linear. *)

val path_to_source : t -> int -> int list
(** On-tree node sequence [R; ...; S]. *)

val tree_edges : t -> int list
(** Edge ids currently in the tree. *)

val total_cost : t -> float
(** Sum of tree-edge delays: §4.2's [Cost_T], whose link cost is the
    link's delay. *)

val graft : t -> nodes:int list -> edges:int list -> unit
(** [graft t ~nodes ~edges] splices a path into the tree.  [nodes] runs from
    an on-tree merge node to an off-tree tip; all other nodes must be
    off-tree; [edges] are the connecting edge ids.  The tip becomes an
    on-tree relay (call {!add_member} to subscribe it). *)

val add_member : t -> int -> unit
(** Subscribe an on-tree node; increments [N_R] along its upstream path. *)

val remove_member : t -> int -> unit
(** Unsubscribe a member; decrements counts and prunes any relay chain left
    without downstream members (§3.2.2 departure). *)

(** {2 Branch transactions (tree reshaping, §3.2.3)}

    Reshaping node [R] re-evaluates [R]'s upstream path with [R]'s own
    subtree discounted ("the value of SHR may be inaccurate and should be
    adjusted before the path comparison is made").  The tree supports this
    as a transaction: {!detach_branch} removes [R]'s subtree contribution
    and prunes the old upstream relays, and {!attach_branch} grafts the
    branch back along a new path or the recorded previous one.  {!Reshape}
    decides on a view of the detached tree without mutating it, and runs
    the transaction only to switch.

    Between detach and attach the tree is transiently inconsistent
    ({!validate} may fail); branch nodes still test {!is_on_tree} but must
    be excluded from path searches via {!branch_contains}. *)

type branch

val detach_branch : t -> node:int -> branch * (int list * int list)
(** [detach_branch t ~node] detaches the subtree rooted at [node] (not the
    source).  Returns the branch and the previous attachment [(nodes,
    edges)] — the old upstream path from the deepest ancestor that remains
    on-tree down to [node] — suitable for re-attachment verbatim. *)

val branch_contains : branch -> int -> bool

val attach_branch : t -> branch -> nodes:int list -> edges:int list -> unit
(** [attach_branch t br ~nodes ~edges] grafts the branch back; [nodes] runs
    from an on-tree merge node (outside the branch) to the branch root, the
    interior being off-tree.  Subtree delays are updated by the re-homing
    delta. *)

val validate : t -> (unit, string) result
(** Full invariant audit (acyclicity, count and delay consistency, pruning
    discipline, edge existence); used by tests and property checks. *)

val unsafe_tweak_subtree_members : t -> int -> int -> unit
(** [unsafe_tweak_subtree_members t v delta] adds [delta] to the recorded
    [N_R] of node [v] without updating any other bookkeeping, deliberately
    desynchronising the Eq. 1/2 state from the actual membership.  This is a
    fault-injection hook for the {!Smrp_check} harness (emulating a router
    that drops an [N_R] update); {!validate} and the check oracles exist to
    catch exactly this corruption.  Never call it outside a test or fuzzing
    context. *)
