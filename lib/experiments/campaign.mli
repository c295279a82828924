(** Declarative scenario-matrix campaigns: topology × churn × failure ×
    protocol, every cell a seeded, reproducible experiment.

    A campaign is a value ({!spec}): four axis lists whose cross product
    enumerates the cells.  Running a campaign fans the cells out over
    {!Pool} under the byte-identical-to-sequential contract — workers
    return plain measurement rows, the orchestrator records them into
    per-cell metric registries after the fan-out joins — and renders one
    {!Smrp_obs.Report.t} comparison dashboard (ASCII, HTML, JSON).

    Seeding discipline: every cell derives its root seed from the campaign
    seed XOR an FNV-1a hash of the cell's name, so a cell's results depend
    only on its own coordinates — never on enumeration order, matrix shape,
    or sibling cells — and identical cells (a collapsed sweep axis) are
    deduplicated before the fan-out without changing any surviving cell.
    The name includes the protocol, so two protocol cells never share an
    instance: the paper's figures, each point a paired comparison on one
    topology and group, are the {!Figures} drivers, not cells. *)

type topology =
  | Waxman of { n : int; alpha : float; beta : float; link_delay : Smrp_topology.Waxman.link_delay }
  | Transit_stub of Smrp_topology.Transit_stub.params
  | Locality of { n : int; radius : float; p_near : float; p_far : float }
  | Scale_waxman of { n : int; target_degree : float }
      (** Streaming grid-bucketed generator ({!Smrp_topology.Scale}) for
          large [n]; [alpha]/[beta] derived from the target degree. *)

type protocol =
  | Spf_baseline
  | Smrp of { d_thresh : float; protection : bool }
  | Smrp_query of { d_thresh : float }

type spec = {
  seed : int;
  instances : int;  (** Scenario instances per cell. *)
  horizon : float;  (** Simulated churn horizon per instance. *)
  topologies : (string * topology) list;
  churns : (string * Churn.model) list;
  failures : (string * Failure_model.model) list;
  protocols : (string * protocol) list;
}

val default : spec
(** A broad matrix: three topology families × all four churn models × all
    five failure models × five protocol variants. *)

val quick : spec
(** The pinned CI matrix: 3 topologies × 3 churn models × 2 failure models
    (independent vs adversarial) × 3 protocols, 2 instances per cell —
    54 cells in a few seconds.  Its digest is pinned by
    [test/test_campaign.ml] so enumeration order can never silently
    drift. *)

type cell = {
  c_name : string;  (** ["topo/churn/fail/proto"]. *)
  c_topology : string * topology;
  c_churn : string * Churn.model;
  c_failure : string * Failure_model.model;
  c_protocol : string * protocol;
}

val cells : spec -> cell list
(** The deduplicated cross product, in axis order (topology outermost,
    protocol innermost); a repeated axis value — a collapsed sweep —
    contributes its cell once. *)

val cell_seed : spec -> cell -> int
(** [spec.seed] XOR FNV-1a of the cell name. *)

val spec_of_matrix : ?base:spec -> string -> (spec, string) result
(** Parse a matrix description, overriding [base] (default {!default})
    axis-wise.  Grammar (see DESIGN.md "Campaign DSL"):
    [clause (';' clause)*] with [clause := axis '=' value (',' value)*].
    Axes: [topo] (waxman\[:N\], ts, locality\[:N\], scale:N), [churn]
    (static\[:K\], flash, diurnal, heavy), [fail] (indep\[:K\],
    correlated, regional, cascade, adversarial\[:B\]), [proto] (spf,
    smrp:D, query:D, protected:D), and scalar clauses [instances=N],
    [horizon=T] and [seed=S].  A token equal to one of [base]'s labels
    on that axis (e.g. [indep], [smrp0.3]) names [base]'s own cell.
    Numbers must be positive and finite, except the seed, which is any
    integer. *)

val run : ?jobs:int -> spec -> Smrp_obs.Report.t
(** Run every cell (fanned out over {!Pool.map}) and assemble the
    comparison report, one variant per cell.  Byte-identical whatever
    [jobs]: cell rows are turned into registries only after the fan-out
    joins. *)

val digest : Smrp_obs.Report.t -> string
(** Hex digest of the canonical report JSON — the pinning handle. *)

val mean_disrupted : Smrp_obs.Report.t -> failure:string -> float
(** Mean members disrupted per failure event over the matrix cells whose
    failure axis is [failure] (0 when no such cell recorded a failure) —
    the adversarial-vs-independent comparison the quick matrix pins. *)

val render_summary : Smrp_obs.Report.t -> string
(** Compact per-cell table (joins, failure events, mean disrupted, p90
    recovery distance) plus the adversarial-vs-independent ratio when both
    models are present. *)
