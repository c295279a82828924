(** One simulation scenario of §4: a random Waxman topology, a random
    multicast group, the SPF-built and SMRP-built trees, and the worst-case
    failure measurement for every member.

    Interpretation (see DESIGN.md §3): Figs. 8–10 compare the two
    {e tree-construction protocols} under the same local-detour recovery
    architecture, while Fig. 7 compares the two {e recovery strategies} on
    the SMRP tree.  All four per-member recovery distances are therefore
    recorded. *)

type config = {
  n : int;  (** Network size (paper: 100). *)
  group_size : int;  (** [N_G] (paper: 20–50). *)
  alpha : float;  (** Waxman edge density (paper: 0.15–0.3). *)
  beta : float;  (** Waxman long-edge parameter, fixed (we use 0.2). *)
  d_thresh : float;  (** SMRP delay bound (paper: 0.1–0.4 around 0.3). *)
  link_delay : Smrp_topology.Waxman.link_delay;  (** Link metric model. *)
  seed : int;
}

val default : config
(** The paper's reference setting: N=100, N_G=30, α=0.2, D_thresh=0.3. *)

type member_outcome = {
  member : int;
  rd_local_spf : float option;
      (** Local-detour recovery distance on the SPF tree under that tree's
          worst-case failure; [None] if the member was isolated. *)
  rd_local_smrp : float option;  (** Same on the SMRP tree. *)
  rd_global_spf : float option;  (** Global detour on the SPF tree. *)
  rd_global_smrp : float option;  (** Global detour on the SMRP tree. *)
  delay_spf : float;  (** End-to-end tree delay on the SPF tree. *)
  delay_smrp : float;
}

type t = {
  config : config;
  graph : Smrp_graph.Graph.t;
  source : int;
  members : int list;
  spf_tree : Smrp_core.Tree.t;
  smrp_tree : Smrp_core.Tree.t;
  average_degree : float;
  cost_spf : float;
  cost_smrp : float;
  outcomes : member_outcome list;
}

val run : config -> t
(** Deterministic in [config] (including [seed]): safe to fan out across
    domains with {!Pool.map}. *)

val run_many : ?jobs:int -> ?metrics:Smrp_obs.Metrics.t -> config list -> t list
(** [run_many configs] is [List.map run configs] fanned out over
    {!Pool.map}; byte-identical to the sequential map whatever [jobs].
    Duplicate configs (a collapsed sweep axis) are evaluated once and the
    result shared — [run] is deterministic in its config, so the output
    list is unchanged.

    With [?metrics], each {e occurrence} (not each unique config) records
    into the registry, on the orchestrating domain after the fan-out
    joins: counters [scenario.runs], [scenario.members],
    [scenario.recovered] / [scenario.isolated] (members with / without a
    defined worst-case local-SMRP recovery), and quantile sketches
    [scenario.rd_local_smrp.q], [scenario.rd_global_spf.q],
    [scenario.delay_smrp.q], [scenario.delay_spf.q].  All counted
    quantities are integers (and under the default [`Unit] link metric
    the sketch observations are hop counts), so the totals do not depend
    on the job count. *)

val evaluate :
  Smrp_graph.Graph.t ->
  source:int ->
  members:int list ->
  d_thresh:float ->
  Smrp_core.Tree.t * Smrp_core.Tree.t * member_outcome list
(** Build the SPF and SMRP trees on a caller-supplied topology and measure
    every member — the core of {!run}, exposed for experiments over other
    topology families. *)

val draw :
  config ->
  topo_rng:Smrp_rng.Rng.t ->
  member_rng:Smrp_rng.Rng.t ->
  Smrp_graph.Graph.t * int * int list
(** [(graph, source, members)]: one instance of [config] — a Waxman
    topology drawn from [topo_rng], then [group_size + 1] distinct nodes
    from [member_rng], of which a uniform pick is the source (so the source
    is not biased towards low node ids).  [config.seed] is not read: for
    experiments that split their own streams. *)

val instance : config -> Smrp_graph.Graph.t * int * int list
(** {!draw} on two streams split, topology first, from [config.seed]: the
    instance {!run} measures.  Every static experiment draws through this
    or {!draw}, so one seed names one topology and group everywhere. *)

val next_seed : Smrp_rng.Rng.t -> int
(** A non-negative 30-bit scenario seed from [rng]. *)

val seeds : seed:int -> count:int -> int list
(** [count] scenario seeds: {!next_seed} applied [count] times to the stream
    of [seed].  The seeds of a sweep's scenarios, shared by every data
    point so each point sees the same instances. *)

val recovery_distance :
  ?ws:Smrp_graph.Dijkstra.workspace ->
  Smrp_core.Tree.t ->
  int ->
  [ `Local | `Global ] ->
  float option
(** The member's recovery distance on [tree] under that tree's worst-case
    failure for it (§4.3.1), [None] if the member is isolated — the
    per-member measurement behind {!evaluate}, exposed for experiments on
    other tree builds (e.g. the query scheme). *)

(** Per-scenario aggregates: the relative metrics of §4.2 averaged over the
    group (members without a defined baseline are skipped).

    [rd_relative] is the protocol-vs-protocol comparison the paper reports
    in Figs. 8–10: the deployed system recovers by global detour on the SPF
    tree (PIM after unicast reconvergence), SMRP by local detour on its own
    tree.  [rd_relative_tree] isolates the tree-construction contribution
    (local detour on both trees); [local_vs_global] isolates the recovery
    mechanism (both strategies on the SMRP tree, Fig. 7). *)
type aggregates = {
  rd_relative : float;  (** [(RD^SPF_global - RD^SMRP_local) / RD^SPF_global]. *)
  rd_relative_tree : float;  (** [(RD^SPF_local - RD^SMRP_local) / RD^SPF_local]. *)
  delay_relative : float;  (** [(D^SMRP - D^SPF) / D^SPF]. *)
  cost_relative : float;  (** [(Cost^SMRP - Cost^SPF) / Cost^SPF]. *)
  local_vs_global : float;
      (** [(RD^global - RD^local) / RD^global] on the SMRP tree (Fig. 7's
          reduction). *)
}

val aggregates : t -> aggregates

val mean_reduction : (float option * float option) list -> float
(** Mean of [(baseline - improved) / baseline] over the [(baseline,
    improved)] pairs where both are defined and [baseline > 0], in list
    order; 0 when no pair qualifies.  The group average behind every
    relative recovery-distance metric. *)
