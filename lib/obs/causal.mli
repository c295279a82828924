(** Causal recovery-episode analyzer.

    Owns the recovery-episode record ({!Timeline} is a projection of these
    episodes), the milestone rules, and the two episode views that apply them:
    the live tracker a protocol run feeds through {!milestone}, and a
    post-mortem stitcher that rebuilds failure-rooted causal chains from
    decoded {!Flight} records.  Also the Chrome trace export of those
    records.

    The rules: a detection after a failure opens an episode, each
    signalling attempt counts, the first installation of the latest
    attempt is kept, and first data is recorded.  The two differ
    only in an episode's lifecycle: the tracker keeps one episode per
    member per run and never re-opens it, while the stitcher closes an
    episode at first data, so a later detection of the member opens a
    fresh one. *)

type episode = {
  member : int;
  failure_at : float;
  detected_at : float option;
  signalled_at : float option;
  installed_at : float option;
  first_data_at : float option;
  attempts : int;
}

(** The paper's recovery window (§3.2): detect → notify → repair →
    stabilize, mapped onto the failure→detected, detected→signalled,
    signalled→installed and installed→first-data intervals. *)
type phase = Detect | Notify | Repair | Stabilize

val phase_durations : episode -> (phase * float option) list
val total : episode -> float option

(** {1 Live tracker} *)

type tracker

val create : unit -> tracker

val milestone :
  tracker -> Flight.recorder -> tick:int -> ts:float -> code:int -> a:int -> b:int -> unit
(** Write one recovery milestone: the record [(tick, code, a, b)] to the
    flight ring, and the milestone, at simulated time [ts], to the
    tracker.  [code] is {!Flight.proto_failure} ([a] the failed link; the
    run's first failure roots every episode), or one of
    {!Flight.proto_detected}, {!Flight.proto_signal},
    {!Flight.proto_installed} and {!Flight.proto_first_data} ([a] the
    member).  A milestone before the failure, or on a member whose
    episode saw first data, is recorded but changes no episode. *)

val episode : tracker -> int -> episode option
val episodes : tracker -> episode list

val disrupted : tracker -> int -> bool
(** An episode is open for this member (detected, no first data yet). *)

val detected_at : tracker -> int -> float option
val restored_at : tracker -> int -> float option

(** {1 Oracle and exec-event tables} *)

val oracle_id : string -> int
(** Stable small-int id for a `lib/check` oracle name; 0 = unknown. *)

val kind_join : int
val kind_leave : int
val kind_fail : int
val kind_reshape : int

val pack_exec_event : kind:int -> operand:int -> int
val exec_event_operand : int -> int

(** {1 Post-mortem stitching} *)

type violation = {
  v_oracle : string;
  v_phase : phase;
  v_index : int;  (** schedule event index the oracle fired on *)
  v_member : int;  (** node operand of the violating event, -1 if none *)
}

type analysis = {
  a_episodes : episode list;
  a_violations : violation list;
  a_counts : (int * int) list;  (** event code → record count, code-sorted *)
  a_messages : int;  (** net.send records *)
  a_drops : int;  (** net.drop_* records *)
  a_dropped : int;  (** records lost to ring wrap-around *)
  a_span : (int * int) option;  (** min/max tick seen *)
}

val of_records : ?dropped:int -> Flight.decoded list -> analysis
(** Stitch a decoded record stream into failure-rooted episodes under the
    tracker's milestone rules.  An episode closes at first data: any later
    detection of the member opens a fresh one, rooted at the latest
    failure record.  Exec-level records (event-index ticks) root episodes
    and attribute violations to phases. *)

val render : analysis -> string
(** Human-readable summary: record counts, per-episode critical-path
    breakdown, and each violation with the recovery phase it hit. *)

val openmetrics_of_episodes : episode list -> string
val to_openmetrics : analysis -> string
(** OpenMetrics-style text exposition (ends with [# EOF]). *)

val to_chrome :
  ?pid:int ->
  ?process:string ->
  ?msg_label:(int -> string) ->
  (string -> unit) ->
  Flight.decoded list ->
  unit
(** Chrome [trace_event] JSONL projection of a record stream, one event
    object per [emit] call (no newline); a [process] name adds a metadata
    event for [pid] (default 0).  A delivered frame is a complete span from
    send to delivery on the sender's track, named by [msg_label] of its
    packed message (default ["frame"]); drops are ["drop.down:"] or
    ["drop.in_flight:"] instants.  Each stitched episode
    is one ["recovery"] span on the member's track, from detection to first
    data (a begin alone if data never resumed).  Protocol and exec records
    are instants and span records complete spans on their domain's track,
    named by {!Flight.code_name}; engine records are left out. *)
