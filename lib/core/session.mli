(** High-level façade: one multicast session under a chosen protocol, with
    membership churn, reshaping and failure repair.  This is the API the
    examples and the CLI drive; experiments use the lower-level modules
    directly. *)

type protocol =
  | Spf  (** The SPF/PIM-style baseline. *)
  | Smrp of { d_thresh : float }
  | Smrp_query of { d_thresh : float }  (** SMRP under the §3.3.1 query scheme. *)

type repair = {
  detour : Recovery.detour;
  strategy : [ `Local | `Global | `Protected ];
      (** [`Protected]: answered from the precomputed {!Protect} tables —
          the detour re-attached a whole orphaned branch ([detour.member]
          is the branch root), not a single member. *)
}

type event =
  | Joined of int
  | Left of int
  | Reshaped of { node : int; switches : int }
  | Failed of Failure.t
  | Repaired of repair
  | Lost of int  (** Member permanently isolated by the failure. *)

type t

val create : ?protection:bool -> Smrp_graph.Graph.t -> source:int -> protocol:protocol -> t
(** Every session keeps an incremental source SPF ({!Smrp_graph.Dspf}).  It
    supplies each SMRP or query join's unicast distance D_SPF, so a join
    runs only its candidate search, and it answers {!reachable}.  {!fail}
    only queues a failure for it; the next read (a join or {!reachable})
    applies the queue, so a session that never joins after a failure pays
    no SPF update.

    A session also owns one {!Smrp_graph.Dijkstra.workspace}, which every
    join, detour and re-join search borrows, and a {!Failure.mask} of its
    active failures, extended by each {!fail} and handed to every
    failure-aware search as its filters.  The workspace makes a session
    domain-private: use it from one domain at a time, as a campaign does
    by running each cell's sessions inside one [Pool] task.

    [~protection:true] (default false) arms the precomputed-protection
    tables: the session keeps {!Protect} branch-detour tables (invalidated
    in O(1) by membership churn and repairs; an entry is computed when a
    failure's lookup first reads it).  Under SMRP protocols, a single link
    or non-source node failure is then repaired by table lookup — each
    orphaned branch re-attaches wholesale along its table detour (logged as
    one [`Protected] repair per branch) — with automatic fallback to the
    staged search repair whenever the failure shape or a stale precondition
    rules the tables out.  SPF-protocol sessions accept the flag but always
    use the search path. *)

val protection_stats : t -> Protect.stats option
(** Lookup/recompute counters of the protection tables, when armed. *)

val tree : t -> Tree.t

val events : t -> event list
(** Event log, oldest first. *)

val active_failure : t -> Failure.t option
(** The composition of every failure injected so far (persistent failures
    outlive repairs); joins and repairs route around all of them. *)

val reachable : t -> int -> bool
(** Whether the node can reach the source under every active failure:
    false for a dead router, and for every node once the source's router
    is dead.  Raises [Invalid_argument] for a node outside the graph. *)

val join : t -> int -> unit

val leave : t -> int -> unit

val reshape_all : t -> int
(** Condition-II sweep; returns the number of path switches. *)

val fail : t -> Failure.t -> repair list
(** Apply a persistent failure and repair the session.  The failure stays
    active for the rest of the session: later joins and later repairs avoid
    it too.  Raises [Invalid_argument], leaving the session untouched, if
    the failure names an edge or node outside the graph.

    Under SMRP protocols each disconnected member takes its local detour;
    under SPF it re-joins by global detour, as PIM would after unicast
    reconvergence.  The tree is rebuilt: surviving structure is kept,
    disconnected members re-attach one by one (closest detour first, so an
    early recovery can serve as a later member's merge point, as in
    Fig. 2(b)).  Members that cannot reach any surviving node are dropped
    and logged as {!Lost}. *)
