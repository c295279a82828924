(** Plain-text rendering of experiment output: aligned tables for the
    series of Figs. 8–10 and an ASCII scatter for Fig. 7, so the benchmark
    harness prints the same rows/series the paper reports. *)

type t

val create : columns:string list -> t

val add_row : t -> string list -> unit
(** Row length must match the column count. *)

val render : t -> string

val to_csv : t -> string
(** RFC-4180-style CSV of the same rows (quotes doubled, cells containing
    commas/quotes/newlines quoted). *)

val scatter : xlabel:string -> ylabel:string -> (float * float) list -> string
(** 60×24 ASCII scatter plot with the [y = x] diagonal marked ([.]), points ([*]),
    points on the diagonal ([o]).  Mirrors Fig. 7's presentation: points
    below the diagonal mean the local detour beat the global one. *)
