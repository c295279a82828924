(** The 2-level hierarchical recovery architecture (§3.3.3).

    The network is a transit–stub topology.  Each stub domain hosting
    members forms a level-1 recovery domain whose {e agent} is the stub
    router holding the access link; the transit network plus the agents form
    the level-2 (top) recovery domain.  Each domain runs its own multicast
    sub-tree:

    - in the source's stub domain, the tree is rooted at the actual source
      and the agent joins as a relaying member (the paper's [A_1]);
    - in every other member stub domain, the tree is rooted at the agent;
    - in the top domain, the tree is rooted at the source domain's agent and
      the other agents join as members.

    A failure is recovered {e inside the domain that owns the failed
    component}: only that domain's sub-tree is reconfigured, which is the
    scalability argument of §3.3.3. *)

type domain = {
  id : int;  (** Stub-domain id, or [-1] for the top domain. *)
  sub : Smrp_graph.Subgraph.t;
  tree : Tree.t;  (** Over [sub.graph] (subgraph node ids). *)
  agent : int;  (** Agent in original node ids. *)
}

type t

val build :
  ?d_thresh:float ->
  Smrp_topology.Transit_stub.t ->
  source:int ->
  members:int list ->
  t
(** Build the recovery architecture for a session.  [source] and all
    [members] must be stub nodes. *)

val top_domain : t -> domain

val member_domains : t -> domain list
(** Stub domains hosting at least one member (the source's included). *)

type recovery = {
  domain_id : int;  (** [-1] for the top domain. *)
  receiver : int;  (** Original node id (a member, or an agent). *)
  detour : Recovery.detour;  (** In subgraph ids. *)
  recovery_distance : float;
  confined : bool;  (** Whether the detour stayed inside the owning domain —
                        true by construction; recorded for auditability. *)
}

val recover : t -> Failure.t -> recovery list
(** Compute local-detour recoveries for every receiver disconnected by the
    failure, confined to the owning domain.  The failure is given in
    original graph ids. *)

val flat_equivalent : t -> Tree.t
(** The flat (non-hierarchical) SMRP tree over the whole topology with the
    same source and members — the comparison point for the hierarchical
    ablation. *)
