(** Protocol overhead accounting (§3.3.2): what SMRP's signalling actually
    costs on the wire next to the baseline's, measured in the packet-level
    simulator over the join phase and steady state (no failures).

    The paper argues the maintenance overhead is "fairly small" once SHR
    recalculation is deferred into each member's join; here the visible cost
    is the join signalling itself (SMRP paths are slightly longer) on top of
    the hello/refresh baseline both protocols pay. *)

type side = {
  protocol : string;
  hello : int;
  query : int;  (** §3.3.1 query + response frames. *)
  join_req : int;
  refresh : int;
  prune : int;
  data : int;
  join_req_per_member : float;
}

type result = {
  seed : int;
  members : int;
  sim_time : float;
  smrp : side;
  pim : side;
  smrp_query : side;  (** SMRP joining through the §3.3.1 query exchange. *)
  smrp_reshaped : side;  (** SMRP with the Condition-II timer running. *)
}

val run : ?members:int -> ?sim_time:float -> unit -> result
(** One instance, drawn from scenario seed 41 with [members] group
    members, simulated for [sim_time] seconds under each protocol. *)

val render : result -> string
