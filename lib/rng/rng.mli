(** Deterministic pseudo-random number generation.

    All stochastic components of the SMRP reproduction draw from this module so
    that every experiment is reproducible bit-for-bit from an integer seed.
    The generator is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): tiny state,
    excellent statistical quality for simulation purposes, and cheap
    {!split}ting into independent streams. *)

type t
(** Mutable generator state: 8 bytes holding the SplitMix64 state unboxed,
    so advancing it allocates nothing. *)

val create : int -> t
(** [create seed] returns a fresh generator determined by [seed]. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    independent of the remainder of [t]'s stream.  Used to give each
    topology / member-set / failure draw its own stream so adding samples to
    one experiment does not perturb another. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bits53 : t -> int
(** The next draw's 53 uniform bits, in [\[0, 2{^53})]: on the same draw,
    [float t 1.0] is [float_of_int (bits53 t) /. 0x1p53].  A caller that
    compares the draw with a probability in its own code allocates
    nothing, where {!float} boxes its result across the module
    boundary. *)

val bool : t -> bool
(** Fair coin flip. *)

val pick : t -> 'a array -> 'a
(** [pick t a] is a uniformly chosen element of the non-empty array [a]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val sample_without_replacement : t -> int -> int -> int list
(** [sample_without_replacement t k n] draws [k] distinct integers uniformly
    from [\[0, n)], in increasing order.  Requires [0 <= k <= n]. *)

val exponential : t -> float -> float
(** [exponential t rate] draws from Exp(rate); used for simulator timers. *)
