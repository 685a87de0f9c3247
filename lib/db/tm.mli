(** The distributed transaction manager: strict-2PL locks over the
    {!Txn_core} transaction core, for a batch of transactions.

    Every transaction spans all [n] sites (sites it does not write
    still vote — the paper's protocols assume a fixed participant set;
    narrowing participation is orthogonal to termination).  Tm adds the
    locks: a transaction acquires its whole lock set at every touched
    site before it starts (conservative 2PL, FIFO queues), and each
    site releases the transaction's locks when it decides (strictness).
    Everything between start and decision — staging, the commit
    protocol with site 1 mastering, the durable commit or abort,
    crashes — is the core's.  A crashed site serves no lock requests:
    the crash wipes its lock table except for prepared transactions,
    whose data the WAL pins; its waiters stop waiting on it; and
    transactions that start later request no locks there.

    No deadlock can occur, even across sites.  A transaction requests
    its whole lock set in one step at start, one request per (site,
    key), exclusive when it writes the key; FIFO queues never let a
    request pass one already queued.  So every transaction a waiter
    waits on started before it, and the global waits-for graph has no
    cycle.

    This layer is what turns the paper's abstract cost of blocking into
    a measurable one: a blocked commit protocol keeps its locks, and
    every later transaction touching those keys waits with it (the
    fig1/thm9 lock-availability benches). *)

type txn_spec = Txn_core.txn_spec = {
  tid : int;  (** unique, >= 1 *)
  start_at : Vtime.t;
  writes : (Site_id.t * Wal.update list) list;
  reads : (Site_id.t * string list) list;
  vote_no : Site_id.t list;  (** slaves that will vote no *)
}

val txn :
  ?reads:(Site_id.t * string list) list ->
  ?vote_no:Site_id.t list ->
  tid:int ->
  start_at:Vtime.t ->
  (Site_id.t * Wal.update list) list ->
  txn_spec

type txn_status =
  | Txn_committed  (** every site committed *)
  | Txn_aborted  (** every site aborted *)
  | Txn_blocked  (** some site undecided at the horizon *)
  | Txn_torn
      (** sites decided differently — an atomicity violation, visible
          as money lost/created by the bank workload *)
  | Txn_waiting_locks  (** never acquired its lock set *)

val pp_status : Format.formatter -> txn_status -> unit

type txn_report = {
  spec : txn_spec;
  status : txn_status;
  locks_granted_at : Vtime.t option;
  all_decided_at : Vtime.t option;
  lock_wait : Vtime.t option;  (** start -> locks granted *)
  latency : Vtime.t option;  (** start -> all sites decided *)
}

type config = {
  protocol : Site.packed;
  n : int;
  t_unit : Vtime.t;
  mode : Network.mode;
  partition : Partition.t;
  delay : Delay.t;
  seed : int64;
  horizon : Vtime.t;
  trace_enabled : bool;
  initial : (Site_id.t * (string * string) list) list;
      (** pre-loaded per-site database contents (a restored snapshot,
          not WAL-logged) *)
  crashes : (Site_id.t * Vtime.t) list;
      (** crash-stop failures: from its instant a site neither sends,
          receives nor decides.  Its durable store survives and can be
          taken through {!Commit_storage.Durable_site.recover} and the
          core's recovery rule ({!Txn_core.peer_decision},
          {!Txn_core.adopt}) after the run — the end-to-end recovery
          tests do exactly that.  Checked up front by {!run}. *)
}

val default_config : protocol:Site.packed -> ?n:int -> unit -> config

type report = {
  txns : txn_report list;
  stores : Durable_site.t array;  (** index i = site i+1; inspectable *)
  trace : Trace.t;
  net_stats : Network.stats;
  crashed : Site_id.t list;
      (** sites dead at the horizon; transaction statuses and latencies
          are computed over the surviving sites *)
}

val run :
  ?obs:Obs.t ->
  ?prof:Prof.t ->
  ?on_gauge:(string -> int -> unit) ->
  config ->
  txn_spec list ->
  report
(** [obs] (default {!Obs.disabled}) records, besides the per-site
    protocol spans and message flows, a transaction-lifecycle timeline
    on track 0: a root txn span containing lock-wait and protocol
    phases, sealed when the last live site decides.  An enabled [obs]
    is the run's log (see {!Obs.log}): [report.trace] is [obs], its
    text view on exactly when [config.trace_enabled] is.

    [prof] brackets lock-manager work (acquire / release / purge) with
    the [Locks] profiler bucket, protocol steps with [Protocol] and the
    network with [Network].  [on_gauge] receives point-in-time samples — today
    ["gauge.lock_waiters"], the cross-site lock-wait queue depth —
    whenever the wait graph may have changed; Tm sits below the metrics
    pipeline, so gauges flow out through this callback.

    @raise Invalid_argument on duplicate tids or a crash site outside
    [1..n]. *)

val count_status : report -> txn_status -> int

val pp_report : Format.formatter -> report -> unit
