(** Summary statistics for the evaluation metrics of §4.2: means and the 95%
    confidence intervals plotted as error bars in Figs. 8–10. *)

type summary = {
  count : int;
  mean : float;
  stddev : float;  (** Sample standard deviation (n-1). *)
  ci95 : float;  (** Half-width of the normal-approximation 95% CI. *)
  min : float;
  max : float;
}

val summarize : float list -> summary
(** Raises [Invalid_argument] on an empty list. *)

val mean : float list -> float

val percentile : float -> float list -> float
(** [percentile p xs] with [p] in [\[0,1\]] via linear interpolation. *)

val relative_reduction : baseline:float -> improved:float -> float
(** [(baseline - improved) / baseline]: the paper's [RD^relative] shape. *)

val relative_increase : baseline:float -> changed:float -> float
(** [(changed - baseline) / baseline]: the paper's delay/cost penalties. *)

val pct : summary -> string
(** A relative metric as a table cell: mean and 95% CI half-width in
    percent, e.g. [" 23.3% ± 5.3"]. *)

val pp_summary : Format.formatter -> summary -> unit
