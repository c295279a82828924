(** Structured run reports: a plain-data model of one experiment campaign —
    per-variant metric totals, quantile-sketch summaries and sim-time
    series — with JSON (de)serialization through {!Json}, an ASCII
    table renderer, and a self-contained HTML comparison dashboard.

    A report is built from merged {!Metrics} snapshots, one registry per
    {e variant} (e.g. "spf baseline", "smrp d=0.25", "smrp query").  The
    model is deliberately plain data with structural equality: two runs
    that merge to identical snapshots produce equal reports and
    byte-identical JSON, so parallel-vs-sequential identity checks can
    compare rendered reports directly. *)

(** One distribution summary, taken from a non-empty {!Sketch}.  Quantile
    estimates are precomputed (harmonic bucket midpoints clamped to the
    observed extrema); [d_rel_err] is the sketch's worst-case relative
    error bound for estimates in finite buckets. *)
type dist = {
  d_count : int;
  d_sum : float;
  d_min : float;
  d_max : float;
  d_p50 : float;
  d_p90 : float;
  d_p99 : float;
  d_p999 : float;
  d_rel_err : float;
}

(** One variant: association lists in sorted-name order (inherited from
    {!Metrics.snapshot}), so equality is well-defined. *)
type variant = {
  v_name : string;
  v_attrs : (string * string) list;  (** Free-form labels (d_thresh, jobs…). *)
  v_counts : (string * int) list;  (** Counters. *)
  v_values : (string * float) list;
      (** Gauges (last and finite [.max]); always finite. *)
  v_dists : (string * dist) list;  (** Non-empty sketches. *)
  v_series : (string * Series.view) list;
}

type t = { r_title : string; r_meta : (string * string) list; r_variants : variant list }

val of_metrics : name:string -> ?attrs:(string * string) list -> Metrics.t -> variant
(** Snapshot [m] and project it into a variant: counters to [v_counts];
    gauges to [v_values] (non-finite values skipped); non-empty sketches
    to [v_dists]; series to [v_series]. *)

val make : title:string -> ?meta:(string * string) list -> variant list -> t

(** {2 Serialization} *)

val to_string : ?minify:bool -> t -> string
(** JSON of schema [{schema_version; title; meta; variants}], member order
    fixed, so equal reports serialize to byte-identical strings. *)

val of_string : string -> t
(** Inverse of {!to_string}.  Raises [Json.Parse_error] on malformed JSON,
    [Invalid_argument] on a missing or ill-typed member (an object member
    that is not an object, a number that is not finite, a count or
    integer member that is not an integer an [int] holds) or an
    unsupported [schema_version].  Every member is read; none takes a
    default.  A report it returns writes back ({!to_string}) to JSON that
    parses to the value it was read from. *)

(** {2 Renderers} *)

val render_ascii : t -> string
(** Counter, value, distribution and series comparison tables, one column
    per variant (distribution rows carry n/mean/p50/p90/p99/p999/max and
    the error bound; series rows a textual sparkline). *)

val render_html : t -> string
(** A single self-contained HTML document (inline CSS and SVG, no external
    references): per-distribution comparison tables across variants and
    per-series sparkline small-multiples, with light and dark themes. *)
