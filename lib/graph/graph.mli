(** Undirected weighted graphs.

    Nodes are the integers [0 .. node_count - 1].  Each edge carries a
    propagation [delay]: the paper's link metric, used for shortest paths,
    end-to-end delay and tree cost alike (§4.2 defines a link's cost as its
    delay).

    Edges are identified by a dense integer id, which lets failure scenarios
    and path computations use O(1) bitset membership tests.

    The adjacency lives in two forms.  While a graph is built, each node's
    incident edges form a chain of incidence slots, newest first, linked
    through one flat int array of the edge array's length, so {!add_edge}
    allocates nothing per edge but the edge record.  Traversals read a CSR
    (compressed sparse row) view built from the edge array on first use
    after a mutation ({!freeze}). *)

type edge = private {
  id : int;
  u : int;
  v : int;
  delay : float;
}

type t

val create : int -> t
(** [create n] is an empty graph over nodes [0 .. n-1]. *)

val node_limit : int
(** The largest node count an input may ask for: a fuzz case file, or a
    campaign matrix's topology (10⁶, the largest graph the repository
    builds).  Parsers reject larger counts before building anything. *)

val node_count : t -> int

val edge_count : t -> int

val add_edge : t -> int -> int -> float -> int
(** [add_edge g u v delay] inserts the undirected edge [(u, v)] and returns its
    id.  Self-loops, duplicate edges, a delay that is not a positive
    finite number and a graph's 2{^30}th edge are rejected with
    [Invalid_argument]. *)

val edge : t -> int -> edge
(** Edge by id. *)

val edge_between : t -> int -> int -> edge option
(** The edge joining two nodes, if any. *)

val mem_edge : t -> int -> int -> bool

val find_edge : t -> int -> int -> int
(** [find_edge g u v] is the id of the edge joining [u] and [v], or [-1]
    when they are not adjacent.  It scans [u]'s slice of the CSR view
    (freezing [g] first if an edge was added since) and allocates nothing:
    the per-frame form of {!edge_between}.  {!edge_between}, {!mem_edge} and
    {!add_edge}'s duplicate check walk [u]'s build-side chain instead, so
    building a graph edge by edge never rebuilds the CSR. *)

val freeze : t -> unit
(** Build the CSR (compressed sparse row) adjacency view if any edge has been
    added since the last build.  Read-path traversals call this implicitly;
    call it explicitly before sharing a graph read-only across domains, since
    the lazy rebuild is not synchronised. *)

val csr : t -> int array * int array * int array * float array
(** [csr g] freezes [g] and returns the physical CSR arrays
    [(offsets, neighbor, edge_id, delay)]: the incident edges of node [u]
    occupy indices [offsets.(u) .. offsets.(u+1) - 1] of the three flat
    arrays, in insertion order.  For tight loops that cannot afford the
    closure call of {!iter_neighbors}.  The arrays are the graph's own:
    treat them as read-only and do not retain them across a mutation. *)

val iter_neighbors : t -> int -> (int -> int -> float -> unit) -> unit
(** [iter_neighbors g u f] applies [f neighbor edge_id delay] to each incident
    edge of [u] in insertion order, straight off the CSR arrays — the
    allocation-free replacement for {!neighbors} on hot paths. *)

val neighbors : t -> int -> (int * int) list
(** [neighbors g u] lists [(v, edge_id)] pairs, in insertion order.
    Allocates a fresh list per call; prefer {!iter_neighbors} on hot paths. *)

val degree : t -> int -> int

val average_degree : t -> float

val iter_edges : (edge -> unit) -> t -> unit

val fold_edges : ('a -> edge -> 'a) -> 'a -> t -> 'a

val delay_of_edges : t -> int list -> float
(** Sum of the delays of the edges with these ids. *)
