(** Deterministic case executor: drives one {!Case.t} through
    {!Smrp_core.Session} and runs the {!Oracle} battery after every applied
    event.

    Events that are inapplicable in the current state (joining a member
    twice, leaving a non-member, joining a node the active failures
    disconnect, failing the source's router) are {e skipped}, not errors:
    the generator emits schedules against a membership model, not the full
    protocol state, and a skip keeps replay deterministic.  Unexpected
    exceptions from the protocol stack are violations, not crashes. *)

(** Deliberate bugs the executor can inject, to prove the oracles catch
    what they claim to catch (and to exercise the shrinker). *)
type bug =
  | No_bug
  | Skip_n_r_update
      (** After each applied join, drop one [N_R] increment at the joiner —
          the "router forgets to update SHR bookkeeping" fault of Eq. 1/2.
          Caught by the structure/bookkeeping oracles. *)
  | Drop_member_on_reshape
      (** A Condition-II sweep silently unsubscribes a member — the
          make-before-break property violated.  Caught by the reshape
          membership oracle. *)

val bug_of_string : string -> (bug, string) result

val bug_to_string : bug -> string

type stats = {
  applied : int;
  skipped : int;
  repairs : int;  (** Detours grafted across all failure events. *)
  protected : int;
      (** Of [repairs], how many were answered from the protection tables
          (whole-branch [`Protected] re-attachments); 0 unless {!run} was
          given [~protection:true]. *)
  lost : int;  (** Members permanently isolated. *)
  switches : int;  (** Reshaping path switches. *)
}

type violation = {
  index : int;  (** Position of the offending event in [case.events]. *)
  event : Case.event;
  oracle : string;
  message : string;
}

type outcome = Pass of stats | Fail of violation

val run : ?bug:bug -> ?protection:bool -> Case.t -> outcome
(** [~protection:true] (default false) runs the session with the
    precomputed-protection layer armed ({!Smrp_core.Session.create}); failure
    events repaired from the tables are audited by
    {!Oracle.protected_replay} instead of {!Oracle.repair_replay}, and every
    other oracle runs unchanged. *)

val run_engine_diff : Case.t -> outcome
(** Execute the case through {!Engine_diff} instead of the tree-level
    session: the same event schedule drives a packet-level simulation on
    both the timer-wheel and the reference-heap engines, and the run fails
    unless every observable — engine fingerprint, frame accounting, member
    reports — is byte-identical.  The violation (oracle
    ["engine-differential"]) anchors at event 0 because the property is a
    whole-run comparison. *)

val pp_violation : Format.formatter -> violation -> unit
