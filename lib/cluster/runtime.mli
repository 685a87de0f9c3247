(** The long-running cluster runtime.

    Where {!Commit_db.Tm} runs a fixed batch of transactions to a
    verdict, the runtime keeps a cluster of [n] sites alive for an
    open-ended stretch of virtual time and streams transactions through
    it: an arrival process offers [load] cross-site transfers per 100T,
    the {!Scheduler} admits them into a bounded in-flight window and
    places a coordinator per transaction, every admitted transaction
    runs the configured commit protocol over the one shared network —
    and a partition timeline ({!Partition.sequence}-style cut/heal
    phases) plays out underneath, with the Section-5 termination
    protocol engaging automatically on partition detection (it {e is}
    the configured protocol's UD/timeout machinery; swap in plain 2PC
    or 3PC to watch the same timeline strand transactions instead).

    Each admitted transaction runs on the {!Commit_db.Txn_core}
    transaction core, the same one {!Commit_db.Tm} uses: it stages the
    writes, relabels sites so the chosen coordinator masters, forces
    prepare records, decides durably, and crashes, fences and recovers
    sites by the core's single recovery rule.  The runtime adds what a
    long-lived service needs on top: arrivals, the scheduler, the
    continuous {!Auditor}, metrics, snapshots and rendering.  It takes
    no locks: every {!Commit_db.Workload.transfer} writes two keys of
    its own, so there is nothing to contend for.

    Everything observable flows into the {!Metrics} pipeline and the
    {!Auditor}; {!to_json} drains both plus the run summary into one
    deterministic document — same config and seed, byte-identical
    JSON. *)

type config = {
  protocol : Site.packed;
  n : int;
  t_unit : Vtime.t;
  mode : Network.mode;
  timeline : Partition.t;  (** the cut/heal schedule; physical sites *)
  delay : Delay.t;
  seed : int64;
  duration : Vtime.t;  (** arrivals stop at this instant *)
  drain : Vtime.t;  (** extra run time for in-flight transactions *)
  load : int;  (** offered transactions per 100T; >= 1 *)
  window : int;  (** max concurrently running transactions *)
  queue_limit : int option;  (** admission queue bound; [None] = unbounded *)
  policy : Scheduler.policy;
  pause_during_cut : bool;
  crashes : (Site_id.t * Vtime.t) list;
      (** crash schedule: at each instant the site falls silent and
          loses its volatile state — future sends and deliveries die,
          its timers fire into the void, and the scheduler stops
          picking it as a coordinator.  Distinct from a partition:
          there is no heal.  Without a matching entry in [recoveries]
          the crash is a crash-stop. *)
  recoveries : (Site_id.t * Vtime.t) list;
      (** crash-recover schedule: at each instant the (currently dead)
          site replays its WAL ({!Commit_storage.Durable_site.recover}),
          redoing committed-but-unfinished work; every transaction the
          replay leaves undecided then follows the core's recovery rule
          (adopt the first decision in a peer's stable log, or wait for
          the group's first decision; see {!Commit_db.Txn_core}), and
          the site rejoins scheduling, settlement and the auditor.  Its
          pre-crash protocol instances stay fenced: their volatile
          state died with the crash, so the recovery rule speaks for
          the site on every transaction open across the outage.  Each
          site listed must also appear in [crashes] at a strictly
          earlier instant (checked by {!run}). *)
  balance : int;  (** initial per-account balance of each transfer *)
  amount : int;  (** amount moved by each transfer *)
  bucket : Vtime.t;  (** metrics time-series bucket width *)
  trace_enabled : bool;
  snapshot_every : Vtime.t option;
      (** emit a windowed telemetry {!Metrics.snapshot} every this many
          ticks (plus a final cut at the horizon); [None] = off *)
  profile : bool;
      (** attribute host wall-time to subsystem buckets
          (engine/network/protocol/lock-manager/auditor); the result is
          nondeterministic and never serialised *)
}

val default_config : ?protocol:Site.packed -> ?n:int -> unit -> config
(** Termination-transient protocol, [n = 3], [T = 1000] ticks, 200T
    duration, 30T drain, load 50, window 8, queue limit 64,
    partition-aware policy, 10T buckets. *)

type report = {
  config : config;
  horizon : Vtime.t;
  offered : int;
  admitted : int;
  rejected : int;
  starved : int;  (** still queued when the run ended *)
  committed : int;
  aborted : int;
  torn : int;
  blocked : int;  (** admitted but undecided somewhere at the horizon *)
  settled : int;
  termination_invocations : int;
      (** transactions whose decision path went through the termination
          machinery (any non-failure-free decision reason) *)
  probes : int;  (** termination-protocol probe messages on the wire *)
  latency : Commit_checker.Stats.t option;
      (** admission -> last site decided, committed transactions *)
  queue_wait : Commit_checker.Stats.t option;
  throughput_per_100t : float;  (** committed per 100T of [duration] *)
  disk_total : int;  (** money in the durable stores at the horizon *)
  auditor : Auditor.t;
  metrics : Metrics.t;
  net_stats : Network.stats;
  trace : Trace.t;
  trace_dropped : int;
      (** entries the bounded trace ring evicted during the run; the
          CLI surfaces a non-zero count as a stderr warning, and it is
          serialised in {!to_json}'s ["runtime"] section *)
  events_run : int;
      (** engine events executed — deterministic, serialised in
          {!to_json}'s ["runtime"] section so snapshot streams can be
          cross-checked against the run *)
  snapshots : Metrics.snapshot list;
      (** windowed telemetry cuts, oldest first (one per
          [snapshot_every] boundary plus the final horizon cut); empty
          unless [config.snapshot_every] is set *)
  profile : Prof.report option;
      (** wall-clock subsystem attribution ([Some] iff
          [config.profile]); inherently nondeterministic, so never part
          of {!to_json} *)
}

type scratch
(** Reusable per-domain state for cluster sweeps (today: one engine
    whose grown heap array survives across runs).  A scratch must never
    be used by two runs concurrently; a run with a scratch is
    byte-identical to one without. *)

val make_scratch : unit -> scratch

val run : ?obs:Obs.t -> ?scratch:scratch -> config -> report
(** [obs] (default {!Obs.disabled}) records per-transaction lifecycle
    spans — queued / admission-to-settlement on track 0, protocol state
    spans on each physical site's track — plus every message-flow edge.
    An enabled [obs] is the run's log (see {!Obs.log}): [report.trace]
    is [obs], its text view on exactly when [config.trace_enabled] is.
    [scratch] reuses a per-domain engine via {!Engine.reset}; the
    returned [report.trace] is never the scratch's.
    @raise Invalid_argument on a non-positive load/window, a negative
    queue limit, fewer than two sites, [amount >= balance], or a crash
    or recovery schedule the core rejects (a site outside [1..n], a
    recovery without an earlier crash). *)

val atomic : report -> bool
(** No torn transactions, no conservation breaches, and the durable
    stores hold exactly the money the auditor witnessed. *)

val to_json : report -> Commit_checker.Export.json
(** Deterministic: a fixed field order and name-sorted metric objects;
    identical configs and seeds yield byte-identical documents. *)

val pp_report : Format.formatter -> report -> unit

val pp_timeline : Format.formatter -> report -> unit
(** The bucket-by-bucket life of the cluster: arrivals, commits,
    aborts, termination settlements, with the partition phases marked —
    the cluster-life example's table. *)
