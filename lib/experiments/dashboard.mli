(** The [smrp report] campaign: one run producing a {!Smrp_obs.Report.t}
    that compares restoration quality and latency across variants.

    Variants (in report order):

    - ["spf baseline"] — the deployed recovery architecture: SPF-built tree,
      global detour after unicast reconvergence (PIM-style);
    - ["smrp d=X"] — one per [d_values] entry: SMRP-built tree at that
      [D_thresh], local detour;
    - ["smrp query"] — the §3.3 query-based join scheme at the reference
      [D_thresh], local detour;
    - ["smrp (packet sim)"] / ["pim (packet sim)"] — the packet-level
      restoration-latency simulation of §4.4, carrying the
      [recovery.total.q] / [recovery.phase.*.q] sketches and the
      [net.frame_drops] / [proto.members_disrupted] sim-time series.

    The topology variants record into {e aligned} distribution names
    ([rd.q], [delay.q]) so the dashboard's comparison tables line up one
    row per metric with one column per variant.

    The topology variants share one instance per scenario: the
    {!Scenario.instance} of each of the {!Scenario.seeds} of [seed].  The
    packet runs are {!Latency.run_many} from [seed + 1].

    Scenario evaluation fans out over {!Pool.map}; recording happens on the
    orchestrating domain after the fan-out joins, and the packet simulation
    is sequential, so the report is byte-identical whatever [jobs]. *)

type config = {
  seed : int;
  scenarios : int;  (** Random topologies per variant. *)
  d_values : float list;  (** [D_thresh] sweep for the SMRP variants. *)
  latency_runs : int;  (** Packet-level simulation runs (0 disables). *)
  latency : Latency.config;  (** Packet-simulation parameters. *)
}

val default : config
(** Reference campaign: 20 topologies, D_thresh ∈ {0.1, 0.3}, 3 packet
    runs. *)

val quick : config
(** Scaled-down campaign for smoke tests and CI: 4 topologies, one
    D_thresh, 1 packet run with shortened settle/run windows. *)

val run : ?jobs:int -> config -> Smrp_obs.Report.t
(** Execute the campaign.  [jobs] caps the scenario fan-out (default
    {!Pool.default_jobs}); any value yields a byte-identical report. *)
