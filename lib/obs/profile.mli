(** Performance-observability recorder: named phases (wall clock +
    [Gc.quick_stat] deltas) and per-domain pool-worker utilisation (tasks
    claimed, busy vs. idle wall time).

    A recorder is domain-safe: phases and worker records append under a
    mutex; the per-task path mutates only the worker's own handle.  GC
    counters are the calling domain's view (OCaml 5 keeps per-domain
    allocation counters), so a phase that fans out to worker domains
    reports the orchestrator's own allocation — the per-worker
    [minor_words] covers the rest. *)

type gc_delta = {
  minor_words : float;
  major_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
}

type phase = { name : string; wall_s : float; gc : gc_delta }

type worker = {
  domain : int;  (** Domain id (the tid used in stitched traces). *)
  tasks : int;  (** Tasks claimed and run by this worker. *)
  busy_s : float;  (** Wall time spent inside tasks. *)
  wall_s : float;  (** Worker lifetime inside the fan-out; idle = wall - busy. *)
  minor_words : float;  (** Minor-heap words allocated by this domain. *)
}

type t

val create : unit -> t

val phase : t -> string -> (unit -> 'a) -> 'a
(** [phase t name f] runs [f], recording wall time and GC deltas around it
    (also on exception). *)

type worker_handle
(** Per-worker mutable state; owned by the domain that called
    {!worker_start}. *)

val worker_start : t -> worker_handle

val worker_task : worker_handle -> (unit -> 'a) -> 'a
(** Times one claimed task (counted also on exception). *)

val worker_stop : worker_handle -> unit
(** Seals the worker's record into the recorder. *)

val workers : t -> worker list
(** Sorted by domain id.  One record per worker per fan-out, so a recorder
    spanning several [Pool.map] calls accumulates multiple records. *)

val render : t -> string
(** Phase table plus per-worker utilisation table. *)
