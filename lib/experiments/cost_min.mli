(** Testing the §4.2 conjecture: "we expect that the results presented in
    this paper are also applicable to the cost-minimizing multicast routing
    protocols" (citing Wei & Estrin [13]).

    The Steiner-heuristic baseline shares links even more aggressively than
    SPF trees, so SMRP's recovery-distance advantage should hold — if
    anything grow — against it, at the expected cost ordering
    (Steiner ≤ SPF ≤ SMRP). *)

type row = {
  scenarios : int;
  rd_vs_spf : Smrp_metrics.Stats.summary;
      (** RD^relative of SMRP against the SPF system (Fig. 8's metric). *)
  rd_vs_steiner : Smrp_metrics.Stats.summary;
      (** Same metric with the Steiner system as the baseline. *)
  cost_spf_vs_steiner : Smrp_metrics.Stats.summary;
      (** SPF tree cost relative to the Steiner tree (≥ 0 expected). *)
  cost_smrp_vs_steiner : Smrp_metrics.Stats.summary;
  delay_steiner_vs_spf : Smrp_metrics.Stats.summary;
      (** Steiner end-to-end delay penalty vs SPF (cost-min trees trade
          delay away). *)
}

val run : ?seed:int -> ?scenarios:int -> unit -> row
(** Scenarios fan out over {!Pool.map}; the result is byte-identical
    whatever the job count. *)

val render : row -> string
