(** Virtual time.

    All simulation time is integer "ticks".  The paper's analysis is in
    units of [T], the longest end-to-end propagation delay; scenarios fix
    a tick value for [T] (e.g. 1000) so that every bound of the paper
    (2T, 3T, 5T, 6T, 8T) is an exact integer. *)

type t = int
(** A point in virtual time, or a duration.  Never negative. *)

val zero : t

val infinity : t
(** A time later than every schedulable event ([max_int]). *)

val add : t -> t -> t
(** [add t d] is [t + d]; saturates at {!infinity}. *)

val sub : t -> t -> t
(** [sub t d] is [t - d], clipped at {!zero}. *)

val compare : t -> t -> int

val ( <= ) : t -> t -> bool

val ( < ) : t -> t -> bool

val min : t -> t -> t

val max : t -> t -> t

val of_int : int -> t
(** [of_int n] checks [n >= 0]. @raise Invalid_argument otherwise. *)

val to_int : t -> int

val pp : Format.formatter -> t -> unit
(** Prints ticks, with [inf] for {!infinity}. *)

val buf : Buffer.t -> t -> unit
(** Byte-identical to {!pp}, for trace-template renderers. *)

val pp_in_t : unit_t:t -> Format.formatter -> t -> unit
(** [pp_in_t ~unit_t fmt t] prints [t] as a multiple of the propagation
    bound, e.g. ["2.50T"]. *)
