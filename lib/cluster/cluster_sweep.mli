(** Domain-parallel sweeps over cluster scenarios.

    Where {!Commit_checker.Sweep} fans one-transaction scenarios over a
    grid, a cluster sweep fans whole {!Runtime} runs: a grid of seeds ×
    cut/heal timelines × scheduler policies, one independent runtime
    (one engine, one vtime, one network) per task, merged into a single
    summary via the exact merge monoids — counts add, and every run's
    {!Metrics} pipeline (counters, series, streaming histograms) folds
    through {!Metrics.merge_into} / {!Commit_checker.Stats.Acc.merge}.

    The merge is associative and applied in task order, so the summary
    — including {!to_json} byte-for-byte — is independent of [jobs]. *)

type grid = {
  base : Runtime.config;
      (** every task starts from this config; the axes below override
          [seed], [timeline], [policy] and [protocol] *)
  seeds : int64 list;
  timelines : (string * Partition.t) list;  (** label × timeline *)
  policies : Scheduler.policy list;
  protocols : (string * Site.packed) list;
      (** label × protocol; [[]] means "just [base.protocol]" and keeps
          the protocol name out of the task labels *)
}

val tasks : grid -> (Label.t * Runtime.config) list
(** The grid flattened in deterministic task order (timelines outer,
    then policies, then protocols, then seeds), each with a stable
    ["timeline/policy(/protocol)/seed=N"] label.  Every task keeps
    [base]'s crash-recover schedule.  Labels are lazy — a clean run
    never renders one. *)

type summary = {
  runs : int;
  offered : int;
  admitted : int;
  rejected : int;
  starved : int;
  settled : int;
  committed : int;
  aborted : int;
  torn : int;
  blocked : int;
  termination_invocations : int;
  probes : int;
  atomic_runs : int;  (** runs where {!Runtime.atomic} held *)
  clean_runs : int;  (** atomic {e and} nothing blocked at the horizon *)
  failures : string list;
      (** labels of the first non-clean runs, in task order *)
  metrics : Metrics.t;
      (** the exact merge of every run's pipeline — latencies, queue
          waits, decision-reason counters, bucketed throughput series *)
  snapshot_lines : string list;
      (** one rendered JSONL record per windowed telemetry cut, tagged
          with the run's label via the ["run"] field, concatenated in
          task order; empty unless [base.snapshot_every] is set.  The
          merge is an ordered append, so the stream is byte-identical
          for every [jobs]. *)
}

val run : ?jobs:int -> grid -> summary
(** Runs every task and merges, keeping the first 5 [failures].
    [jobs] (default 1 = sequential) folds the tasks with
    {!Commit_par.Pool.fold}, which clamps it to [Pool.default_jobs ()]
    domains (the summary is identical for every [jobs], so the flag is
    purely a performance knob).  Every executor reuses one
    {!Runtime.scratch} across its runs.
    @raise Invalid_argument if the grid is empty or [jobs < 1]. *)

val of_report : label:Label.t -> Runtime.report -> summary
(** The summary of one run: the unit the parallel merge folds over
    ([label] is rendered only when the run is not clean). *)

val merge : keep:int -> summary -> summary -> summary
(** The exact merge the parallel path folds with: counts add, metrics
    pipelines fold through {!Metrics.merge_into} (consuming the left
    argument's pipeline), and [failures] concatenate in task order
    truncated to [keep] ({!Commit_checker.Sweep.cap_append}).
    Associative. *)

val clean : summary -> bool
(** [clean_runs = runs]. *)

val to_json : summary -> Commit_checker.Export.json
(** Deterministic (fixed field order, name-sorted metric objects) and
    independent of [jobs]: same grid, byte-identical document. *)

val pp_summary : Format.formatter -> summary -> unit
