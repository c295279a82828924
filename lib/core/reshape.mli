(** Tree reshaping (§3.2.3).

    A node re-runs path selection with its own subtree discounted and
    switches to the new path when the new merge point is strictly better
    (smaller adjusted SHR, then smaller delay).  Both trigger conditions are
    provided:

    - {b Condition I}: the node's SHR has drifted by more than a threshold
      since the last check (new members were admitted through its upstream
      path) — see {!monitor};
    - {b Condition II}: a periodic sweep, modelled by {!stabilize}. *)

val try_reshape :
  ?d_thresh:float ->
  ?failure:Failure.t ->
  ?ws:Smrp_graph.Dijkstra.workspace ->
  Tree.t ->
  int ->
  bool
(** [try_reshape t r] re-evaluates node [r]'s upstream path; returns whether
    the node switched.  [r] must be on-tree and not the source. *)

type stats = { switches : int; rounds : int }

val stabilize :
  ?d_thresh:float ->
  ?failure:Failure.t ->
  ?ws:Smrp_graph.Dijkstra.workspace ->
  ?max_rounds:int ->
  ?metrics:Smrp_obs.Metrics.t ->
  Tree.t ->
  stats
(** Sweep all non-source on-tree nodes repeatedly (deepest first, so moved
    subtrees settle before their ancestors are reconsidered) until a round
    performs no switch, or [max_rounds] (default 10) is reached.

    Instrumentation is off the hot path unless enabled: with [?metrics],
    counters [reshape.rounds] / [reshape.scans] / [reshape.switches] and
    wall-time sketches [reshape.round_s] / [reshape.stabilize_s] are
    recorded; with a flight recorder installed on [ws]
    ({!Smrp_graph.Dijkstra.set_flight}), one "reshape.round" span record
    per round and one "reshape.stabilize" span record per sweep are
    written, enclosing the inner candidate-search and Dijkstra spans. *)

(** Condition-I bookkeeping: remembers [SHR^old] per node, as received after
    the last reshaping round. *)
type monitor

val monitor : Tree.t -> monitor

val drifted : monitor -> Tree.t -> threshold:int -> int list
(** Nodes whose current SHR exceeds the recorded [SHR^old] by more than
    [threshold]. *)

val note_reshaped : monitor -> Tree.t -> int -> unit
(** Record the node's current SHR as its new [SHR^old]. *)

val run_condition_i :
  ?d_thresh:float -> ?threshold:int -> ?ws:Smrp_graph.Dijkstra.workspace -> monitor -> Tree.t -> int
(** Trigger {!try_reshape} at every drifted node (refreshing their
    snapshots); returns the number of switches. *)
