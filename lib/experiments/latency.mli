(** Packet-level restoration-latency experiment (the §1 motivation, after
    [25]): on the same topology and group, compare the time from failure to
    data resumption under

    - {b SMRP}: min-SHR tree, starvation/hello detection, immediate local
      detour;
    - {b PIM/OSPF}: SPF tree, same detection, global re-join gated by the
      unicast reconvergence time.

    The failure is the worst case for a random member: the on-tree link
    incident to the source towards it.  The topology and group are
    {!Scenario.draw}'s, on the two streams split from the scenario seed; the
    victim is drawn from the member stream after the group. *)

type config = {
  scenario : Scenario.config;
  ospf_convergence : float;
  settle_time : float;  (** Sim time for joins and soft state to settle. *)
  run_time : float;  (** Sim time after failure injection. *)
}

val default : config

type side_result = {
  restored : int;  (** Members that resumed receiving data. *)
  disrupted : int;  (** Members that lost service at all. *)
  mean_detection : float;  (** Failure → starvation/hello detection. *)
  mean_restoration : float;  (** Failure → first data after recovery. *)
  control_messages : int;
  episodes : Smrp_obs.Timeline.episode list;
      (** Per-member recovery timelines: the §3.2 detection / signalling /
          installation / first-data decomposition of [mean_restoration]. *)
  metrics : string option;
      (** Rendered metrics registry, when the run was started
          [~with_metrics:true] or given this side's registry. *)
  flight : Smrp_obs.Flight.t option;
      (** The side's own flight recorder, when the run was started
          [~flight:true]: 2{^19} records, enough to hold the default
          scenario's whole run. *)
}

type result = { seed : int; smrp : side_result; pim : side_result }

val run :
  ?flight:bool ->
  ?with_metrics:bool ->
  ?smrp_metrics:Smrp_obs.Metrics.t ->
  ?pim_metrics:Smrp_obs.Metrics.t ->
  config ->
  result option
(** [None] when every member's worst-case link is a graph bridge (recovery
    impossible); {!run_many} skips such draws.

    [flight] (default false) records each side into its own
    {!Smrp_obs.Flight.t} ({!side_result.flight}) instead of the global
    ring.  [with_metrics] (default false) collects engine/net/protocol
    metrics per side into {!side_result.metrics}.
    [smrp_metrics] / [pim_metrics] supply external registries for the
    respective side (e.g. a report collector's per-variant registries) —
    the side then records its counters, recovery-latency sketches
    ([recovery.total.q] and friends) and sim-time series
    ([net.frame_drops], [proto.members_disrupted]) into the given
    registry. *)

val to_chrome : result -> (string -> unit) -> unit
(** Both sides' flight records as Chrome [trace_event] JSONL
    ({!Smrp_obs.Causal.to_chrome}), keyed on the simulation clock: SMRP as
    pid 1, PIM as pid 2, frames named by message kind.  Emits nothing for a
    side run without [~flight:true]. *)

val run_one : ?flight:bool -> ?with_metrics:bool -> seed:int -> config -> result option
(** One {!run} at the first seed drawn from [seed] (the draws {!run_many}
    makes) that has a recoverable victim, within 50 draws — the scenario
    [smrp latency --trace] and [--metrics] observe. *)

val run_many :
  ?smrp_metrics:Smrp_obs.Metrics.t ->
  ?pim_metrics:Smrp_obs.Metrics.t ->
  ?seed:int ->
  ?runs:int ->
  config ->
  result list
(** Up to [runs] (default 10) results of {!run}, at the {!Scenario.next_seed}
    draws from [seed] (default 25), skipping draws without a recoverable
    victim and giving up after [5 * runs] draws.  [smrp_metrics] /
    [pim_metrics] are passed to every {!run}, so each side's registry
    accumulates over all the draws. *)

val render : result list -> string
