(** Graphviz export for trees and failure scenarios — debugging and
    documentation aid ([dot -Tsvg] renders the output). *)

val network :
  ?tree:Tree.t -> ?failure:Failure.t -> ?highlight:int list -> Smrp_graph.Graph.t -> string
(** The whole topology; tree edges are drawn bold, failed components dashed
    red, and [highlight]ed edge ids (e.g. a detour path) dotted blue. *)
