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
  ?ws:Smrp_graph.Dijkstra.workspace ->
  ?spf:float array ->
  Tree.t ->
  int ->
  bool
(** [try_reshape t r] re-evaluates node [r]'s upstream path with no failure
    active, by the single-node evaluation {!stabilize} sweeps with.
    Returns whether the node switched; the tree is mutated only then.  [r]
    must be on-tree and not the source.

    [spf] holds every node's failure-free unicast delay to the source
    ([infinity] where unreachable), as {!Smrp.attach_path} reads it: [r]'s
    entry is its D_SPF and the whole array bounds the candidate search.
    Without it one source-rooted search computes it. *)

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

    With [failure], D_SPF and every candidate search are over the
    surviving network.  The tree may still cross the failure, so the
    searches take their lower bounds from the failure-free source SPF.

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

val run_condition_i : ?d_thresh:float -> ?threshold:int -> monitor -> Tree.t -> int
(** Trigger {!try_reshape} at every drifted node: every on-tree node but
    the source whose current SHR exceeds its recorded [SHR^old] by more
    than [threshold] (default 1).  A triggered node still on the tree
    then records its SHR as its new [SHR^old].  Returns the number of
    switches. *)
