(** Running a protocol over a scenario grid and aggregating verdicts.

    This is how the repository phrases the paper's theorems as
    experiments: Theorem 9 becomes "the termination protocol's sweep has
    zero violations and zero blocked runs"; Section 3's observations
    become "the extended-2PC and 3PC+rules sweeps have nonzero
    violations, and here are the first counterexamples".

    Grids are embarrassingly parallel — every run owns its engine, its
    network and its clock — so [run ~jobs:n] folds contiguous chunks
    of the grid on up to [n] domains and merges the per-chunk partial
    summaries in task order.  The summary, including which counterexamples are kept, is
    byte-identical to the sequential run for every [jobs]. *)

type summary = {
  protocol : string;
  runs : int;
  violations : int;  (** runs that broke atomicity *)
  blocked_runs : int;  (** runs with at least one blocked site *)
  committed : int;
  aborted : int;
  undecided : int;  (** runs where no site decided *)
  max_decision_time : Vtime.t option;
      (** worst decision latency across all runs *)
  total_decision_time : int;
      (** sum of per-run worst decision instants (ticks) over the
          [runs - undecided] deciding runs — mean latency without
          retaining per-run verdicts *)
  violation_examples : (Runner.config * Verdict.t) list;
  blocked_examples : (Runner.config * Verdict.t) list;
}

val run :
  ?keep:int -> ?jobs:int -> Site.packed -> Runner.config list -> summary
(** Summarises every config as if each were run with tracing off
    (grids are large), and keeps up to [keep] (default 3) example
    configs per failure class.  Not every config is simulated.  The
    network reads a run's partition only at message arrivals, through
    {!Partition.separated}, so a run is a deterministic function of its
    config without the partition (its {e key}) and of the answers its
    partition gives to the queries (arrival instant, sender, receiver)
    it makes.  Each executor keeps, per key, the runs it has simulated
    as a trie: a node is a run's next query, an edge the answer, a leaf
    the verdict.  A config's walk enters its key's trie by binary
    search, at the first node of the all-"no" path from the root whose
    query comes at or after the partition's start (no partition
    separates anyone earlier), then asks its own partition each node's
    query; if it reaches a leaf it takes that verdict unrun, else it is
    simulated and its queries ({!Runner.queries}) are inserted below the
    point where it left.  So cuts that start, or heal, between the same
    two arrivals share one simulation, and so do all cuts that start
    after the run ends.
    Configs with a [Delay.Per_link] delay, whose closure may carry
    state from one run to the next, are always simulated.  The summary
    equals the plain per-config fold ({!Runner.run},
    {!Verdict.of_result}, {!of_verdict}, {!merge}).  [jobs] (default 1
    = sequential, no domains spawned) folds the grid with
    {!Commit_par.Pool.fold}, which clamps it to [Pool.default_jobs ()]
    domains; the summary is identical for every [jobs], so the flag is
    purely a performance knob.  Every executor reuses one
    {!Runner.scratch} across all its runs.  An empty grid yields the
    empty summary.
    @raise Invalid_argument if [jobs < 1] on a non-empty grid.
    @raise Failure if a simulated run made another query than a stored
    run with the same key and the same earlier answers, which a
    deterministic run never does. *)

val of_verdict : protocol:string -> Runner.config * Verdict.t -> summary
(** The summary of one run: the unit the parallel merge folds over.
    [merge]-ing per-run summaries in task order reproduces {!run}. *)

val merge : keep:int -> summary -> summary -> summary
(** The exact merge the parallel path folds with: counts add, the max
    takes the later instant, and example lists concatenate in task
    order truncated to [keep].  Associative, with {e earlier} examples
    winning — merging per-run summaries left to right reproduces the
    sequential selection. *)

val cap_append : keep:int -> 'a list -> 'a list -> 'a list
(** The first [keep] elements of [a @ b] in O(keep) work: lengths are
    counted only up to [keep + 1] (never a full [List.length] scan),
    the append is never materialised beyond the cap, and a left list
    that already fills the cap is returned physically unchanged — so an
    at-cap accumulator is never rebuilt by later merges.  The example
    lists here and [Cluster_sweep]'s failure labels
    merge through it. *)

val mean_decision_time : summary -> float option
(** [total_decision_time / (runs - undecided)]; [None] when no run
    decided. *)

val pp_summary : Format.formatter -> summary -> unit
