(** Participating-site identifiers.

    Sites are numbered 1..n as in the paper; site 1 is always the master
    of a transaction ("we can always name the participating sites ...").
    Identifiers are plain integers with a validated constructor. *)

type t = private int

val of_int : int -> t
(** @raise Invalid_argument unless the argument is >= 1. *)

val to_int : t -> int

val master : t
(** Site 1. *)

val is_master : t -> bool

val equal : t -> t -> bool

val compare : t -> t -> int

val pp : Format.formatter -> t -> unit
(** ["site3"], or ["master"] for site 1. *)

val buf : Buffer.t -> t -> unit
(** Byte-identical to {!pp}, for trace-template renderers. *)

val all : n:int -> t list
(** [all ~n] is [\[1; ...; n\]]. @raise Invalid_argument if [n < 1]. *)

val slaves : n:int -> t list
(** [slaves ~n] is [\[2; ...; n\]]. *)

module Set : Set.S with type elt = t

module Map : Map.S with type key = t

val set_of_ints : int list -> Set.t

val pp_set : Format.formatter -> Set.t -> unit

val set_to_mask : Set.t -> int
(** Pack a set into a bitmask (bit [i] = site [i+1]) so it fits a trace
    template argument. *)

val buf_set_mask : Buffer.t -> int -> unit
(** Render a {!set_to_mask} bitmask byte-identically to {!pp_set}. *)
