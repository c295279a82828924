(** Packet-level SMRP: every control interaction of §3.2 — explicit
    [Join_Req]/[Leave_Req] signalling hop by hop, soft-state tree maintenance
    with periodic refreshes and expiry, hello-based liveness, periodic data
    from the source — driven by the {!Engine} over a {!Net}.

    Path {e selection} uses the same full-topology computation the paper
    assumes of members (§3.2.2, "we assume that NR has knowledge of the
    network topology"); everything that determines {e latency} — detection,
    signalling propagation, state installation, data resumption — happens
    through timed messages.

    The restoration-latency experiment this enables mirrors the paper's
    motivation ([25]): a PIM-style member must wait for unicast
    reconvergence ([ospf_convergence]) before its global re-join, while an
    SMRP member signals its local detour as soon as starvation is
    detected. *)

type recovery_strategy = Local | Global

type join_mode =
  | Oracle  (** Full topology knowledge, as §3.2.2 assumes of members. *)
  | Query_scheme
      (** The §3.3.1 message exchange: the joiner queries through its
          neighbours, each query travels the neighbour's unicast path until
          the first on-tree node, which answers with its SHR; after
          2.0 simulated seconds the joiner selects among the answers (degrading to
          the full-knowledge join when none arrived). *)

(** The timers are fixed, in simulated seconds: hello every 1.0, a link
    dead after 3.5 hello periods without one; refresh every 5.0, soft
    state held for 3 refresh periods; data every 0.1, a member disrupted
    after 5 data periods of silence; a query-scheme joiner collects
    answers for 2.0. *)
type config = {
  ospf_convergence : float;  (** Unicast reconvergence time gating global re-joins. *)
  strategy : recovery_strategy;
  join_mode : join_mode;
  reshape_period : float option;
      (** Condition-II timer (§3.2.3): when set, every member periodically
          re-runs path selection and switches make-before-break (join the
          new upstream, then prune the old).  Disabled while a failure is
          being recovered.  [None] (default) disables reshaping. *)
  d_thresh : float;
}

val default_config : config
(** OSPF convergence 5.0 simulated seconds, local recovery, oracle joins,
    no reshaping, [D_thresh] 0.3. *)

type msg
(** Wire message, packed into one int: a 3-bit type tag plus either an
    immediate payload (data sequence number) or an index into an internal
    side pool holding the variable-length part (join / query paths).
    Opaque to callers — inspect traffic through {!message_breakdown} or the
    [proto.sent.*] counters. *)

type member_report = {
  member : int;
  detected : float option;
      (** Failure-to-detection delay; [None] when never disrupted. *)
  restored : float option;
      (** Failure-to-restoration delay; [None] when never disrupted {e or}
          never restored (e.g. the failure isolated the member). *)
  data_received : int;
}

type t

val msg_label : int -> string
(** The kind of a packed message as the flight recorder stores it (a net
    record's [a] operand): hello, refresh, prune, data, join_req, query or
    query_resp. *)

val create : ?config:config -> Engine.t -> Smrp_graph.Graph.t -> source:int -> t
(** When the engine has a registry ({!Engine.metrics}), the protocol and
    the {!Net} it creates meter into it: per-type [proto.sent.*] counters,
    [recovery.phase.*.q] and [recovery.total.q] sketches and a
    [proto.members_disrupted] series.  Failure, detection, detour signalling, merge-node
    installation, first data and reshape switches are always written to
    the engine's flight recorder. *)

val net : t -> msg Net.t

val tree : t -> Smrp_core.Tree.t
(** The control-plane view of the tree (kept in lock-step with the
    distributed state as joins complete). *)

val join : t -> int -> unit
(** Schedule a member's join now (selection per the session's protocol,
    signalling hop-by-hop).  After {!inject_link_failure}, path selection
    and its D_SPF use only the surviving links, and a joiner the failure
    cuts off from the source stays a member without a path, in every join
    mode: it is reported disrupted and never restored.  A joiner the graph
    itself leaves unconnected raises [Invalid_argument] (under
    [Query_scheme], out of [Engine.run] when the query round ends). *)

val leave : t -> int -> unit

val start : t -> unit
(** Arm the source's data stream and all periodic machinery. *)

val inject_link_failure : t -> int -> unit
(** Fail an edge now; members detect and recover per the configured
    strategy. *)

val reports : t -> member_report list
(** Per-member disruption accounting (call after running the engine). *)

val control_messages : t -> int
(** Control frames sent so far (everything except [Data]). *)

val message_breakdown : t -> (string * int) list
(** Frames sent so far by type: hello, join_req, refresh, prune, data —
    the §3.3.2 overhead accounting. *)

val timeline : t -> Smrp_obs.Timeline.episode list
(** Recovery-episode milestones per disrupted member, always recorded
    (failure → detection → detour signal → installation → first data);
    the per-phase decomposition behind {!reports}'s two scalars. *)
