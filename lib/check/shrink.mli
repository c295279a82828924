(** Greedy case minimizer.

    Given a failing case and the failure predicate (in {!Fuzz}: the case's
    run returns [Exec.Fail]), repeatedly applies reduction passes and keeps
    every candidate that still fails:

    - {b events}: chunked-then-single greedy deletion (delta-debugging
      style), plus binary halving of large failure groups (regional balls,
      correlated bursts, cascade chains) and then splitting what remains
      into single elements;
    - {b edges}: deleting one graph edge at a time, remapping the edge ids
      failure events refer to;
    - {b nodes}: compacting away isolated nodes nothing references,
      renumbering the survivors.

    Passes loop until a full round makes no progress.  The result fails the
    same predicate (possibly via a different oracle — standard shrinking
    semantics) and is usually a handful of events over a handful of
    nodes. *)

val shrink : fails:(Case.t -> bool) -> Case.t -> Case.t
(** [shrink ~fails case] requires [fails case = true] and returns a minimal
    failing case; returns [case] unchanged if it does not fail. *)
