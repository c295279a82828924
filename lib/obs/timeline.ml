(* Recovery-episode timelines, as a projection of {!Causal} episodes.

   The milestone bookkeeping (failure → detected → signalled → installed →
   first data) lives in [Causal.tracker]; this module keeps the original
   paper-phase vocabulary on top of the shared episode record. *)

type episode = Causal.episode = {
  member : int;
  failure_at : float;
  detected_at : float option;
  signalled_at : float option;
  installed_at : float option;
  first_data_at : float option;
  attempts : int;
}

type phase = Detection | Signalling | Installation | First_data

let phases = [ Detection; Signalling; Installation; First_data ]

let phase_name = function
  | Detection -> "detection"
  | Signalling -> "signalling"
  | Installation -> "installation"
  | First_data -> "first data"

let to_causal = function
  | Detection -> Causal.Detect
  | Signalling -> Causal.Notify
  | Installation -> Causal.Repair
  | First_data -> Causal.Stabilize

let phase_durations e =
  let d = Causal.phase_durations e in
  List.map (fun p -> (p, List.assoc (to_causal p) d)) phases

let total = Causal.total
