(** Redundant trees for preplanned recovery — Medard, Finn, Barry & Gallager,
    IEEE/ACM ToN 1999 (the paper's reference [16] and Related-Work
    comparator).

    Two directed spanning trees (red and blue) rooted at the multicast
    source are built such that, for {e every} node, its red path and its
    blue path to the source are link-disjoint.  Any single link failure
    therefore leaves every receiver connected through at least one tree:
    recovery is an instant switchover with zero recovery distance — at the
    price of provisioning two trees and of requiring a 2-edge-connected
    topology (the practicality critique in the paper's §2).

    Construction: Schmidt chain decomposition from the source (which also
    certifies 2-edge-connectivity), then the MFBG linear-order ear
    processing — each open ear strings its interior from the lower endpoint
    (red direction) to the higher (blue direction); a closed ear leaves and
    re-enters through distinct links of its anchor. *)

type t

val build : Smrp_graph.Graph.t -> source:int -> t option
(** [None] when the graph is not connected and 2-edge-connected (a bridge
    or isolated node makes single-failure protection impossible). *)

val paths_disjoint : t -> int -> bool
(** Whether the node's red and blue paths share no link (the MFBG
    guarantee; exposed for property tests). *)

val survives : t -> Failure.t -> member:int -> bool
(** Whether the member still reaches the source through at least one tree
    under the failure. *)

val delay : t -> int -> float
(** The faster of the two paths' delays (the steady-state path). *)

val worst_delay : t -> int -> float
(** The slower path's delay — what the member experiences right after a
    failure hits its primary. *)

val provisioned_cost : t -> receivers:int list -> float
(** Total cost (delay, as §4.2 defines link cost) of the links provisioned
    for the given receivers: the union of all their red and blue path
    edges. *)
