(** Persistent failure scenarios: a broken link or an incapacitated router
    (§1).  A scenario does not mutate the graph; it is expressed as the
    node/edge filters the path computations already accept, so scenarios
    compose with every search in the library. *)

type t =
  | Link of int  (** edge id *)
  | Node of int
  | Multi of t list
      (** Simultaneous (or accumulated) failures; persistent failures last
          hours, so a session typically outlives several. *)

val compose : t list -> t
(** Wrap a list of scenarios into one [Multi] (a singleton stays itself).
    It does not flatten: composing compositions nests them, and {!pp} and
    the fuzz harness's case JSON show that nesting. *)

val node_ok : t -> int -> bool
(** Whether a node survives the scenario.  Walks the whole scenario on
    every call: the one-off test.  A search that asks once per relaxed
    edge should use a compiled form instead: {!filters} or a {!mask}. *)

val edge_ok : Smrp_graph.Graph.t -> t -> int -> bool
(** Whether an edge survives; a node failure kills its incident links. *)

(** {2 Compiled failures}

    A search asks its filters once per relaxed edge, so a failure is
    compiled before it searches.  There are two compiled forms, behind the
    same [(node_ok, edge_ok)] pair:

    - {!filters} compiles one failure for one search, at a cost that
      follows the failure's size.  One-off searches use it: a [~failure]
      given to {!Smrp.spf_distance}, {!Reshape.stabilize} or a {!Recovery}
      detour.
    - a {!mask} is allocated once per graph and extended as failures
      accumulate; each check is one byte load.  A {!Session} keeps one for
      the composition of its active failures, and hands its filters to
      every join and repair search. *)

type filters = (int -> bool) * (int -> bool)
(** [(node_ok, edge_ok)]: whether a node, and an edge, survives. *)

val filters : Smrp_graph.Graph.t -> t -> filters
(** [filters g f] is [(node_ok f, edge_ok g f)] compiled once for a search.
    It gives the same answer for every id, outside the graph too (a failed
    id outside the graph kills nothing inside it), wherever [edge_ok]
    answers rather than raising on a bad edge id.  Each check is a binary
    search over a sorted array of the dead nodes, or of the dead edges
    (failed links plus every edge incident to a dead node), and allocates
    nothing.  Compiling costs the failure's size plus the dead nodes'
    degrees, never O(node count); a lone [Link] needs no arrays. *)

type mask
(** A byte per node and per edge of one graph, marking the dead ones: the
    compiled form a long-lived owner extends failure by failure. *)

val mask : Smrp_graph.Graph.t -> mask
(** A mask over [g] with nothing dead, sized to [g]'s node and edge counts
    at creation. *)

val kill : mask -> t -> unit
(** Mark a failure's nodes and edges dead, and every edge incident to a
    dead node.  Costs the failure's size plus the dead nodes' degrees.
    Raises [Invalid_argument] for an id outside the mask's graph. *)

val mask_filters : mask -> filters
(** The mask's [(node_ok, edge_ok)].  They read the mask live, so a later
    {!kill} shows through them; they raise [Invalid_argument] for an id
    outside the graph.  For the ids of the graph they answer as {!filters}
    of the composition of every failure killed so far. *)

val worst_case_for_member : Tree.t -> int -> t option
(** The paper's worst case for member [R] (§4.3.1): the failure of the
    on-tree link incident to the source on the path towards [R] — the
    failure that disables the largest portion of [R]'s tree.  [None] when
    [R] is the source itself. *)

val tree_connected : Tree.t -> t -> bool array
(** [tree_connected t f] marks the on-tree nodes that still receive data:
    reachable from the source along surviving tree links and nodes. *)

val affected_members : Tree.t -> t -> int list
(** Members that lost service (excluding a member whose own router died —
    it cannot recover). *)

val pp : Smrp_graph.Graph.t -> Format.formatter -> t -> unit
