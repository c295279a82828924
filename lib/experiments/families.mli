(** Topology-family robustness: the Fig. 8 headline comparison repeated on
    each flat random-graph family of Zegura et al. [7] at a matched average
    degree, plus the transit–stub model.  Checks that SMRP's advantage is a
    property of the protocol, not of the Waxman generator. *)

type row = {
  family : string;
  average_degree : float;
  rd : Smrp_metrics.Stats.summary;  (** Full-system RD reduction (Fig. 8 metric). *)
  delay : Smrp_metrics.Stats.summary;
  cost : Smrp_metrics.Stats.summary;
}

val run : ?seed:int -> ?scenarios:int -> unit -> row list
(** Families: waxman, pure-random, locality, transit-stub, the flat ones at
    average degree 4.5 (the reference Waxman density).  Scenarios fan out
    over {!Pool.map}; the result is byte-identical whatever the job
    count. *)

val render : row list -> string
