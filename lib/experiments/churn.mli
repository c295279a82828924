(** Membership churn models for campaign cells.

    A churn model turns a seeded RNG into a timed schedule of join/leave
    operations over the nodes of a topology — the "arrival model" axis of
    the campaign matrix.  Dynamic multicast algorithms rank differently
    across arrival models (Waxman-style steady state vs flash crowds vs
    heavy-tailed sessions), so the matrix sweeps them explicitly:

    - {b Static}: the paper's model — the whole group joins at time zero
      and stays (§4.1);
    - {b Flash_crowd}: bursts of geometrically-sized join crowds at random
      instants, members departing after exponential lifetimes;
    - {b Diurnal}: periodic waves — every wave joins a cohort in its first
      half and drains exactly that cohort in its second half, so joins and
      leaves balance wave by wave;
    - {b Heavy_tail}: a uniform arrival stream with Pareto session
      lifetimes (a few members effectively never leave).

    Everything is a pure function of the supplied {!Smrp_rng.Rng.t}: the
    same seed yields the same schedule, run after run and whatever the
    pool's job count. *)

type model =
  | Static of { group_size : int }
  | Flash_crowd of {
      crowds : int;  (** Burst count over the horizon. *)
      mean_size : float;  (** Geometric mean joins per burst (≥ 1). *)
      spread : float;  (** Burst joins land in [t, t + spread]. *)
      mean_lifetime : float;  (** Exponential mean membership duration. *)
    }
  | Diurnal of { waves : int; wave_size : int }
  | Heavy_tail of {
      arrivals : int;
      alpha : float;  (** Pareto shape (> 1 for a finite mean). *)
      x_min : float;  (** Pareto scale: minimum session lifetime. *)
    }

type op = Join of int | Leave of int

type event = { at : float; op : op }

val schedule : model -> Smrp_rng.Rng.t -> n:int -> source:int -> horizon:float -> event list
(** The schedule, sorted by time (draw order breaking ties).  Joins only
    ever pick currently-unjoined non-source nodes; a burst bigger than the
    free pool is capped.  Under [Flash_crowd] and [Heavy_tail] a member
    leaves its drawn lifetime after it joined, or stays when that falls
    at or past [horizon].  Deterministic in the RNG state. *)
