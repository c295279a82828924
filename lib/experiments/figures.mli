(** Drivers regenerating each figure of §4.  Every run is deterministic in
    its [seed]; scenario counts default to the paper's but scale down for
    quick runs.  A data point is a paired comparison: each scenario is one
    {!Scenario.run}, and every point of a sweep runs on the same
    {!Scenario.seeds} of [seed], changing only the swept parameter.
    Scenario fan-outs run domain-parallel through {!Pool}
    ([jobs] to override; results are byte-identical whatever the count).
    Every [run] accepts [?metrics]: a {!Smrp_obs.Metrics.t} registry that
    each scenario records into (see {!Scenario.run}) — shared across the
    parallel fan-out, it merges to exactly the sequential totals.

    Sampling note: the paper reuses each random topology for several member
    sets (e.g. 10 × 10 in Fig. 8); we draw an independent topology per
    scenario, which samples the same ensemble with marginally more
    between-scenario variance.  EXPERIMENTS.md discusses the substitution. *)

module Fig7 : sig
  (** Local vs. global detour on the SMRP tree (scatter, §4.3.1).
      Paper: most points below y = x; mean reduction ≈ 33%. *)

  type result = {
    points : (float * float) list;  (** (global RD, local RD) per member. *)
    mean_reduction : float;
    below_diagonal_fraction : float;  (** Strictly better local detour. *)
    on_diagonal_fraction : float;  (** Equal-length detours (ties). *)
  }

  val run :
    ?jobs:int ->
    ?metrics:Smrp_obs.Metrics.t ->
    ?seed:int ->
    ?topologies:int ->
    unit ->
    result
  (** Default: 5 topologies of the reference configuration, with Euclidean
      link delays (the scatter is over a continuous recovery-distance
      scale, as in the paper's plot).  [jobs] caps the domain fan-out
      (default {!Pool.default_jobs}); any value yields identical results. *)

  val render : result -> string

  val csv : result -> string
  (** One line per member: [global_rd,local_rd]. *)
end

module Fig8 : sig
  (** Effect of [D_thresh] (§4.3.2).  Paper at 0.3: RD −20%, delay/cost +5%;
      improvement roughly linear in [D_thresh]. *)

  type row = {
    d_thresh : float;
    rd : Smrp_metrics.Stats.summary;  (** RD^relative across scenarios. *)
    rd_tree : Smrp_metrics.Stats.summary;
        (** Supplementary: the tree-construction contribution alone. *)
    delay : Smrp_metrics.Stats.summary;
    cost : Smrp_metrics.Stats.summary;
  }

  val run :
    ?jobs:int ->
    ?metrics:Smrp_obs.Metrics.t ->
    ?seed:int ->
    ?values:float list ->
    ?scenarios:int ->
    unit ->
    row list
  (** Defaults: D_thresh ∈ {0.1, 0.2, 0.3, 0.4}, 100 scenarios each. *)

  val render : row list -> string

  val csv : row list -> string
  (** Numeric columns (means and CI half-widths) for plotting. *)
end

module Fig9 : sig
  (** Effect of node degree via α (§4.3.3).  Paper: improvement shrinks
      slightly as the degree grows; ≈12% even at degree 10. *)

  type row = {
    alpha : float;
    average_degree : float;
    rd : Smrp_metrics.Stats.summary;
    delay : Smrp_metrics.Stats.summary;
    cost : Smrp_metrics.Stats.summary;
  }

  val run :
    ?jobs:int ->
    ?metrics:Smrp_obs.Metrics.t ->
    ?seed:int ->
    ?values:float list ->
    ?scenarios:int ->
    ?degree_ten_row:bool ->
    unit ->
    row list
  (** Defaults: α ∈ {0.15, 0.2, 0.25, 0.3}, 100 scenarios each, plus the
      §4.3.3 extension row with α calibrated to average degree ≈ 10. *)

  val render : row list -> string

  val csv : row list -> string
  (** Numeric columns (means and CI half-widths) for plotting. *)
end

module Fig10 : sig
  (** Effect of group size [N_G] (§4.3.4).  Paper: steady ≈20% RD reduction,
      ≈5% overhead, slight decline with larger groups. *)

  type row = {
    group_size : int;
    rd : Smrp_metrics.Stats.summary;
    delay : Smrp_metrics.Stats.summary;
    cost : Smrp_metrics.Stats.summary;
  }

  val run :
    ?jobs:int ->
    ?metrics:Smrp_obs.Metrics.t ->
    ?seed:int ->
    ?values:int list ->
    ?scenarios:int ->
    unit ->
    row list
  (** Defaults: N_G ∈ {20, 30, 40, 50}, 100 scenarios each. *)

  val render : row list -> string

  val csv : row list -> string
  (** Numeric columns (means and CI half-widths) for plotting. *)
end
