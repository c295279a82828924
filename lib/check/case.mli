(** Self-contained, replayable fuzz cases.

    A case carries everything {!Exec.run} needs to reproduce a run
    bit-for-bit: an explicit topology (node count plus an edge list whose
    positions are the edge ids), the session parameters, and the event
    schedule.  Cases serialize to JSON (via {!Smrp_obs.Json}) so a
    failing draw survives as a repro file that replays across machines and
    commits; {!Shrink} rewrites cases structurally, which is why the topology
    is explicit rather than a generator seed. *)

type protocol = Spf | Smrp | Smrp_query

type event =
  | Join of int
  | Leave of int
  | Fail of { links : int list; nodes : int list }
      (** One persistent failure event; more than one element models the
          correlated (SRLG-style) failures of the transient-failure
          literature. *)
  | Reshape  (** A Condition-II timer fire: one {!Smrp_core.Reshape.stabilize} sweep. *)

type t = {
  n : int;  (** Node count; nodes are [0 .. n-1]. *)
  edges : (int * int * float) list;
      (** [(u, v, delay)]; list position is the edge id. *)
  source : int;
  protocol : protocol;
  d_thresh : float;
  events : event list;
}

val graph : t -> Smrp_graph.Graph.t
(** Build the topology; edge ids equal positions in [edges]. *)

val failure : event -> Smrp_core.Failure.t option
(** The composed failure of a [Fail] event; [None] for other events or an
    empty element list. *)

val event_count : t -> int

val to_json : t -> Smrp_obs.Json.t

val of_json : Smrp_obs.Json.t -> (t, string) result
(** Validates ranges (node count up to {!Smrp_graph.Graph.node_limit},
    far above what generated cases use, node and edge ids, finite positive
    delays, a finite non-negative [d_thresh]) so a
    hand-edited repro fails loudly rather than crashing the executor. *)

val save : string -> t -> unit

val load : string -> (t, string) result

val pp_event : Format.formatter -> event -> unit

val pp : Format.formatter -> t -> unit
