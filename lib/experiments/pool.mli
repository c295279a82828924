(** Domain-parallel fan-out over independent seeded scenarios.

    {b Determinism contract}: [map f xs] equals [List.map f xs] exactly —
    workers claim inputs from a shared queue but write results into the slot
    of the input claimed, and the output is merged back in input order.
    Provided [f] is a pure function of its argument (every scenario derives
    its topology, group, failures and RNG stream from its own seed), the
    result is byte-identical whatever the job count or scheduling.

    [f] must not share mutable state across calls: each invocation runs in
    whichever worker domain claimed it.  That includes a
    {!Smrp_obs.Metrics.t} registry, which raises when a domain other than
    its creator registers into it: [f] returns plain rows, and the caller
    records them after [map] returns, in input order.

    {b Observability}: under {!with_instrumentation}, [map] records
    per-worker utilisation into a {!Smrp_obs.Profile.t} (tasks claimed,
    busy vs. idle wall time, one record per worker domain) and wall-clock
    task/worker span records into a {!Smrp_obs.Flight.t}, each worker
    writing its own domain's ring.  Neither hook affects results. *)

val max_jobs : int
(** 128, the most domains the OCaml 5.1 runtime runs at once (its
    [Max_domains]), the calling domain included. *)

val default_jobs : unit -> int
(** [SMRP_BENCH_JOBS] if set to an integer in [1 .. max_jobs], otherwise
    [Domain.recommended_domain_count ()] (with a warning on stderr when
    the variable is set to anything else). *)

val with_instrumentation :
  ?profile:Smrp_obs.Profile.t -> ?flight:Smrp_obs.Flight.t -> (unit -> 'a) -> 'a
(** Installs the hooks {!map} records into for the duration of the
    callback, so instrumentation reaches [Pool.map] calls buried inside
    figure runners without threading parameters through.  Install and run
    from the orchestrating domain only; nesting restores the previous
    hooks on exit. *)

val ambient_flight : unit -> Smrp_obs.Flight.t option
(** The recorder installed by the innermost enclosing
    {!with_instrumentation}, if any.  Safe to call from a {!map} worker
    domain (the install happens before the workers spawn): task bodies that
    want to record their own spans — e.g. [Scenario.run] installing its
    domain's ring on its Dijkstra workspace — read the hook here instead of
    requiring an extra parameter. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ?jobs f xs] is [List.map f xs] computed on [min jobs (length xs)]
    domains (the calling domain included).  [jobs] defaults to
    {!default_jobs}; [jobs = 1] runs sequentially in the calling domain
    with no domain spawned (still recording one worker entry when
    instrumented).  If [f] raises, the exception of the lowest failing
    input index is re-raised after all workers join — the one [List.map]
    would raise, whatever the job count or scheduling.  An input is
    skipped only once a lower index has failed.  Raises
    [Invalid_argument] before any work when [jobs] is outside
    [1 .. max_jobs]. *)
