(** Ablations for the design features §3.2.3–§3.3.3 describe but do not
    evaluate quantitatively: tree reshaping under churn, the partial-
    knowledge query scheme, and the hierarchical recovery architecture. *)

module Reshaping : sig
  (** Build the SMRP tree, churn the group (half the members leave, new ones
      join), then measure the worst-case recovery distance before and after
      a Condition-II reshaping sweep. *)

  type row = {
    scenarios : int;
    switches_per_scenario : float;
    rd_before : Smrp_metrics.Stats.summary;  (** RD^relative vs SPF tree. *)
    rd_after : Smrp_metrics.Stats.summary;
    delay_before : Smrp_metrics.Stats.summary;
    delay_after : Smrp_metrics.Stats.summary;
  }

  val run : ?seed:int -> ?scenarios:int -> unit -> row

  val render : row -> string
end

module Query : sig
  (** Full-topology SMRP vs the §3.3.1 query scheme, both against SPF. *)

  type row = {
    scenarios : int;
    rd_full : Smrp_metrics.Stats.summary;  (** RD^relative, full knowledge. *)
    rd_query : Smrp_metrics.Stats.summary;  (** RD^relative, query scheme. *)
    delay_full : Smrp_metrics.Stats.summary;
    delay_query : Smrp_metrics.Stats.summary;
  }

  val run : ?seed:int -> ?scenarios:int -> unit -> row

  val render : row -> string
end

module Hierarchical : sig
  (** Stub-link failures on transit–stub topologies: domain-confined
      recovery in the 2-level architecture vs local detour on the flat SMRP
      tree over the whole network. *)

  type row = {
    scenarios : int;
    failures : int;
    confined_fraction : float;  (** Hierarchical recoveries confined to the
                                    owning domain (1.0 by construction). *)
    flat_escape_fraction : float;
        (** Flat recoveries whose detour left the failure's stub domain. *)
    rd_hier : Smrp_metrics.Stats.summary;
    rd_flat : Smrp_metrics.Stats.summary;
  }

  val run : ?seed:int -> ?scenarios:int -> unit -> row

  val render : row -> string
end
