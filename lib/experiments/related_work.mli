(** The §2 Related-Work comparison the paper argues qualitatively:
    SMRP's reactive local detours versus Medard et al.'s preplanned
    redundant trees ([16]).

    Two questions are quantified:

    - {b feasibility}: redundant trees need a 2-edge-connected topology;
      on Waxman graphs at the paper's densities most draws contain bridges,
      substantiating "its complexity makes it difficult … to be applied to
      large networks";
    - {b price of protection} (on the feasible draws): instant zero-RD
      switchover versus SMRP's short-but-nonzero detours, against the
      provisioned capacity and steady-state delay each scheme needs. *)

type feasibility_row = {
  alpha : float;
  average_degree : float;
  feasible_fraction : float;  (** Topologies admitting redundant trees. *)
}

type comparison = {
  scenarios : int;  (** Feasible scenarios compared. *)
  rd_smrp : Smrp_metrics.Stats.summary;  (** Worst-case local-detour RD. *)
  rd_redundant : float;  (** Identically zero: instant switchover. *)
  delay_smrp : Smrp_metrics.Stats.summary;  (** Steady delay vs SPF, relative. *)
  delay_redundant : Smrp_metrics.Stats.summary;
      (** Redundant primary-path delay vs SPF, relative. *)
  post_failure_delay_redundant : Smrp_metrics.Stats.summary;
      (** Backup-path delay vs SPF, relative (after switchover). *)
  cost_smrp : Smrp_metrics.Stats.summary;  (** Tree cost vs SPF tree, relative. *)
  cost_redundant : Smrp_metrics.Stats.summary;
      (** Provisioned dual-tree cost vs SPF tree, relative. *)
}

val feasibility :
  ?seed:int -> ?samples:int -> ?alphas:float list -> unit -> feasibility_row list

val compare_schemes : ?seed:int -> ?scenarios:int -> unit -> comparison
(** Draws topologies at alpha 0.5 (dense enough that feasible draws are
    common) and compares the schemes on those admitting redundant
    trees. *)

val render : feasibility_row list -> comparison -> string
