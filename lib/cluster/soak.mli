(** Deterministic soak runs: millions of ticks of cluster time under a
    seed-derived randomized fault schedule.

    A soak decomposes into [epochs] independent {!Runtime} runs of
    [segment] ticks each.  Epoch [i] derives everything from
    [(seed, i)] alone: its workload seed, a partition cut-and-heal
    early in the segment, a crash-recover window in the middle stretch
    (the site always rejoins under load), and a message-delay model
    drawn from minimal/uniform/full.  Every random draw is made
    unconditionally, so a faults-off soak over the same seed runs the
    identical arrival process — the bench's "faults on vs. off" legs
    differ only in the injected schedule.

    Epochs merge in index order through the exact metrics monoid
    (snapshot lines tagged ["epoch=N"] concatenate in epoch order), so
    the summary — and {!to_json} byte-for-byte — is identical for every
    [jobs] value and every invocation.

    Conservation is checked incrementally: each epoch's {!Runtime.atomic}
    verdict lands in [conserved_epochs] as the epoch finishes, rather
    than one audit over the whole soak at the end. *)

type config = {
  base : Runtime.config;
      (** per-epoch template; the soak overrides [seed], [timeline],
          [crashes], [recoveries], [delay] and [duration] *)
  seed : int64;  (** the soak seed every epoch derives from *)
  epochs : int;
  segment : Vtime.t;  (** per-epoch arrival window, in ticks *)
  faults : bool;  (** inject the derived fault schedule? *)
}

val default_config : ?base:Runtime.config -> unit -> config
(** Seed 1, 16 epochs of 200T each (3.2M ticks on the default 1000-tick
    T), faults on. *)

val epoch_config : config -> epoch:int -> Runtime.config
(** The fully-derived runtime config of one epoch — exposed so tests
    can replay a single epoch in isolation. *)

type summary = {
  epochs_run : int;
  ticks : int;  (** virtual time simulated across all epochs *)
  offered : int;
  admitted : int;
  committed : int;
  aborted : int;
  torn : int;
  blocked : int;
  settled : int;
  crashes : int;  (** injected crash instants across the soak *)
  recoveries : int;  (** injected recover instants *)
  cut_phases : int;  (** injected partition phases *)
  conserved_epochs : int;
      (** epochs where {!Runtime.atomic} held — the incremental
          conservation check *)
  failures : string list;  (** ["epoch=N"] labels of non-atomic epochs *)
  metrics : Metrics.t;  (** the exact merge of every epoch's pipeline *)
  snapshot_lines : string list;
      (** rendered JSONL telemetry, tagged ["epoch=N"], in epoch order;
          empty unless [base.snapshot_every] is set *)
}

val conserved : summary -> bool
(** Every epoch atomic and no torn transactions anywhere — the soak's
    exit gate. *)

val run : ?jobs:int -> config -> summary
(** Runs every epoch and merges in index order.  [jobs] (default 1)
    folds the epochs with {!Commit_par.Pool.fold}, which clamps it to
    [Pool.default_jobs ()] domains; the summary is identical for every
    value.
    @raise Invalid_argument if the base config has fewer than two
    sites, [epochs < 1], [segment < 10T] or [jobs < 1]. *)

val merge : summary -> summary -> summary
(** The ordered associative merge the parallel path folds with
    (consumes the left pipeline, like {!Cluster_sweep.merge}). *)

val of_report : epoch:int -> Runtime.report -> summary
(** One epoch's summary: the unit the merge folds over. *)

val to_json : config -> summary -> Commit_checker.Export.json
(** Deterministic (fixed field order, name-sorted metric objects) and
    independent of [jobs]: same config, byte-identical document. *)

val pp_summary : Format.formatter -> config * summary -> unit
