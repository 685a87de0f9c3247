(** Small descriptive statistics over integer samples (virtual times),
    for the latency-distribution benches. *)

type t = {
  count : int;
  min : int;
  p50 : int;
  p90 : int;
  p95 : int;
  p99 : int;
  max : int;
  mean : float;
}

val of_list : int list -> t option
(** [None] on the empty list.  Percentiles use the nearest-rank method
    (deterministic, no interpolation). *)

val pp_in_t : unit_t:Vtime.t -> Format.formatter -> t -> unit
(** Renders every quantile as a multiple of T, e.g.
    ["n=42 min=1.00T p50=3.00T p90=5.00T p99=9.00T max=10.00T"]. *)

(** Streaming accumulation: a bounded-memory histogram that never
    retains individual samples, for long cluster runs where millions of
    latencies stream through.

    Values below 64 get one bucket each (exact); larger values share
    log2-linear buckets of 32 sub-buckets per octave (relative error
    below [1/32]).  Accumulators form a commutative monoid under
    {!Acc.merge}, and merging is {e exactly} equivalent to adding the
    samples into a single accumulator — the per-shard metric pipelines
    rely on that. *)
module Acc : sig
  type acc

  val empty : acc

  val add : acc -> int -> acc
  (** @raise Invalid_argument on a negative sample (virtual times are
      never negative). *)

  val add_list : acc -> int list -> acc

  val add_many : acc -> int array -> acc
  (** Batch fast path: exactly [Array.fold_left add acc samples] (one
      scratch pass instead of one map update per sample).
      @raise Invalid_argument on a negative sample. *)

  val merge : acc -> acc -> acc

  val count : acc -> int

  val total : acc -> int
  (** Sum of all samples (exact). *)

  val to_stats : acc -> t option
  (** [None] for {!empty}.  [count], [min], [max] and [mean] are exact;
      the percentiles are nearest-rank over bucket lower bounds, clamped
      into [\[min, max\]] (so a single-sample accumulator reports that
      sample for every quantile). *)
end
