(** Recovery-episode timelines: per-member milestones from a persistent
    failure to data resumption, decomposed into the paper's §3.2 steps —

    - {b detection}: failure → the member declares disruption (starvation
      or hello timeout);
    - {b signalling}: declaration → the (last) detour [Join_Req] leaves the
      member (for a global/PIM recovery this includes the unicast
      reconvergence wait, and for either strategy any retry backoff);
    - {b installation}: signal → forwarding state installed at the merge
      node (the join has propagated hop-by-hop up the detour);
    - {b first data}: installation → the first data packet arrives over the
      restored branch.

    This module is a projection of {!Causal} episodes: the live milestone
    bookkeeping is [Causal.tracker] (driven by the protocol automata), and
    the episode record below is the same type re-exported under the
    original phase vocabulary. *)

type episode = Causal.episode = {
  member : int;
  failure_at : float;
  detected_at : float option;
  signalled_at : float option;
  installed_at : float option;
  first_data_at : float option;
  attempts : int;  (** Detour signalling attempts (> 1 when recoveries raced). *)
}

type phase = Detection | Signalling | Installation | First_data

val phases : phase list
(** In timeline order. *)

val phase_name : phase -> string

val phase_durations : episode -> (phase * float option) list
(** Consecutive milestone deltas, [None] where a milestone is missing. *)

val total : episode -> float option
(** Failure → first data, when the episode completed. *)
