(** Deterministic splittable pseudo-random number generator.

    A splitmix64 core.  Every simulation run is a pure function of its
    seed, so counterexamples found by the checker replay exactly.  The
    generator is intentionally not cryptographic. *)

type t

val create : int64 -> t
(** [create seed] is a fresh generator. *)

val split : t -> t
(** [split t] derives an independent generator and advances [t].  Used to
    give each site / link its own stream so adding a message on one link
    does not perturb delays on another. *)

val next_int64 : t -> int64
(** Uniform over all 64-bit values. *)

val int : t -> bound:int -> int
(** [int t ~bound] is uniform in [\[0, bound)].  [bound] must be
    positive.  @raise Invalid_argument otherwise. *)

val int_in : t -> lo:int -> hi:int -> int
(** Uniform in the inclusive range [\[lo, hi\]].
    @raise Invalid_argument if [lo > hi]. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val bool : t -> bool

val pick : t -> 'a list -> 'a
(** Uniform choice. @raise Invalid_argument on the empty list. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
