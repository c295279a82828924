(** Causal recovery-episode analyzer.

    Owns the recovery-episode record and the live milestone tracker
    (formerly [Timeline.recorder] — {!Timeline} is now a projection of
    these episodes), a post-mortem stitcher that rebuilds failure-rooted
    causal chains from decoded {!Flight} records, and the Chrome trace
    export of those records. *)

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
val note_failure : tracker -> ts:float -> unit
val note_detected : tracker -> member:int -> ts:float -> unit
val note_signalled : tracker -> member:int -> ts:float -> unit
val note_installed : tracker -> member:int -> ts:float -> unit
val note_first_data : tracker -> member:int -> ts:float -> unit
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
(** Stitch a decoded record stream into failure-rooted episodes. Supports
    multiple failure roots: a member restored under one root can open a
    fresh episode under the next. Exec-level records (event-index ticks)
    root episodes and attribute violations to phases. *)

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
