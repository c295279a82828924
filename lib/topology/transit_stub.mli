(** Two-level transit–stub topologies (GT-ITM style), used by the §3.3.3
    hierarchical recovery architecture.

    The top level is a connected Waxman graph of transit routers partitioned
    into transit domains; each transit router sponsors a number of stub
    domains, each a small connected Waxman graph attached to its transit
    router by a single access link. *)

type node_role =
  | Transit of int  (** transit router, carrying its transit-domain id *)
  | Stub of int  (** stub router, carrying its stub-domain id *)

type t = {
  graph : Smrp_graph.Graph.t;
  roles : node_role array;
  stub_count : int;  (** Number of stub domains. *)
  transit_domain_count : int;
  stub_gateway : int array;
      (** [stub_gateway.(d)] is the transit router to which stub domain [d]
          attaches. *)
  stub_attach : int array;
      (** [stub_attach.(d)] is the stub router holding the access link —
          the natural agent of recovery domain [d] (§3.3.3). *)
  inter_domain_links : (int * int * int) array;
      (** One entry per link joining consecutive transit domains [i] and
          [i+1]: [(edge id, endpoint in domain i, endpoint in domain i+1)].
          Used by the 3-level recovery architecture. *)
}

type params = {
  transit_domains : int;  (** ≥ 1 *)
  transit_nodes_per_domain : int;  (** ≥ 1 *)
  stubs_per_transit_node : int;  (** ≥ 0 *)
  stub_nodes : int;  (** nodes per stub domain, ≥ 1 *)
  stub_alpha : float;
  stub_beta : float;
}

val default_params : params

val generate : Smrp_rng.Rng.t -> params -> t

val nodes_of_stub : t -> int -> int list
(** All graph nodes belonging to a given stub domain. *)
