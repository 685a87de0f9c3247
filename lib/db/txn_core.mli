(** The transaction core under both transaction managers.

    {!Tm} (a batch of transactions behind strict-2PL locks) and the
    cluster runtime (open-loop arrivals, a scheduler, an auditor) run
    the same machinery between "this transaction may start" and "every
    live site has decided".  This module owns it once:

    - the wire: protocol messages multiplexed by transaction id, with
      one binary codec;
    - the per-transaction table, whose records carry the client's own
      per-transaction state, so a delivery or a decision is one lookup;
    - instance construction: begin and stage at every live site, one
      protocol instance per site, roles from [vote_no], and master
      relabelling (the protocols hard-wire "site 1 masters", so a
      transaction coordinated by physical site [m] runs over logical ids
      rotated to put [m] at 1; for a site-1 master this is the
      identity);
    - the q-watchdog that aborts a site the transaction never reached;
    - delivery, forcing the prepare record when a site reaches [p] /
      [p1], and fencing;
    - one decision path: a dead/fenced guard, then the durable commit
      or abort, then the client's hooks;
    - crashes, and recovery by one rule.

    {b The recovery rule.}  A restarting site replays its WAL
    ({!Commit_storage.Durable_site.recover}).  Every transaction the
    replay leaves undecided takes the first decision recorded in any
    peer's stable log ({!peer_decision}); if no peer has logged one, the
    site waits for the group's first decision (during a run) or stays in
    doubt (after a run).  This is Gray & Lamport's fail-and-recover
    model with stable storage: a prepared participant never decides on
    its own. *)

type txn_spec = {
  tid : int;  (** unique, >= 1 *)
  start_at : Vtime.t;
  writes : (Site_id.t * Wal.update list) list;
  reads : (Site_id.t * string list) list;
  vote_no : Site_id.t list;  (** slaves that will vote no *)
}

type wire = { wtid : int; body : Types.msg }
(** A protocol message tagged with its transaction. *)

type outcome =
  | Committed  (** every live site committed *)
  | Aborted  (** every live site aborted *)
  | Open  (** some live site has not decided *)
  | Torn  (** live sites decided differently (or none is live) *)

val peer_decision :
  Durable_site.t array -> site:Site_id.t -> tid:int -> Types.decision option
(** The recovery rule: the first decision any site other than [site]
    has in its stable log (commit log or end record: commit; abort
    record: abort), in site order.  The stores are indexed by site
    (position i = site i+1).  [None] means no peer has decided yet. *)

val adopt :
  Durable_site.t -> tid:int -> writes:Wal.update list -> Types.decision -> unit
(** Make [decision] durable at a recovered site, as far as its log
    requires.  A [Prepared] transaction commits the updates its replay
    restored from the forced stage record; an [Active] one was never
    prepared, so a commit re-stages [writes] first; an [Unknown] one
    never reached the site, so a commit also begins it, while an abort
    needs no record.  A transaction the log already decided is left
    alone. *)

val money : prefix:string -> Durable_site.t array -> int
(** Sum of the integer values of every key starting with [prefix],
    across all stores: the bank workloads' conservation total. *)

val load : (string * string) list -> Durable_site.t
(** A fresh store whose database holds these key/value pairs (a
    restored snapshot, not WAL-logged). *)

module Make (P : Site.S) : sig
  type 'c txn = {
    spec : txn_spec;
    mutable client : 'c;  (** the client's own per-transaction state *)
    mutable master : Site_id.t;
    mutable started_at : Vtime.t;
    mutable instances : P.t array;  (** one per site; empty until {!start} *)
    decisions : Types.decision option array;  (** index i = site i+1 *)
    fenced : bool array;
        (** a fenced instance is a ghost: its volatile state predates a
            crash (or its site was down at {!start}), so it may neither
            send, receive nor decide; the recovery rule speaks for it *)
    awaiting : bool array;
        (** recovered sites waiting for the group's first decision *)
    mutable settled : bool;  (** every live site has decided *)
  }

  type 'c hooks = {
    decided : 'c txn -> Site_id.t -> Types.decision -> unit;
        (** after a site's decision is durable and settlement was
            checked *)
    settled : 'c txn -> unit;  (** the last live site has decided *)
    reason : 'c txn -> string -> unit;  (** a protocol's decision reason *)
    crashed : Site_id.t -> unit;
        (** the site is down and its volatile state gone; runs before
            transactions complete over the survivors settle *)
    restarted : Site_id.t -> unit;  (** the site is back, before its replay *)
    recovered : Site_id.t -> Durable_site.recovery_report -> unit;
        (** after the replay and the recovery rule *)
  }

  type 'c t

  val create :
    engine:Engine.t ->
    ?prof:Prof.t ->
    topic:string ->
    n:int ->
    t_unit:Vtime.t ->
    mode:Network.mode ->
    partition:Partition.t ->
    delay:Delay.t ->
    seed:int64 ->
    initial:(Site_id.t * (string * string) list) list ->
    unit ->
    'c t
  (** A core over a fresh network and fresh stores ([initial] loaded),
      with {!no_hooks} until {!set_hooks}.  Everything records into the
      engine's log: trace lines under [topic], spans when the log keeps
      them.  [prof] brackets protocol steps
      with the [Protocol] bucket and the network with [Network]. *)

  val no_hooks : 'c hooks
  (** Hooks that do nothing. *)

  val set_hooks : 'c t -> 'c hooks -> unit
  (** Hooks usually close over a client state that holds the core, so
      they are installed after {!create}. *)

  val schedule_faults :
    'c t ->
    crashes:(Site_id.t * Vtime.t) list ->
    recoveries:(Site_id.t * Vtime.t) list ->
    unit
  (** At each crash instant the site falls silent and loses its
      volatile state; transactions then complete over the survivors
      settle.  At each recovery instant the site fences every
      instance it had, replays its WAL and applies the recovery rule.
      @raise Invalid_argument for a site outside [1..n] or a recovery
      without an earlier crash of the same site. *)

  val add : 'c t -> txn_spec -> 'c -> 'c txn
  (** Register a transaction; it stays inert until {!start}. *)

  val start : 'c t -> 'c txn -> master:Site_id.t -> unit
  (** Begin and stage at every live site, build the instances (fenced
      at dead sites), arm the q-watchdogs and hand the transaction to
      the master. *)

  val find : 'c t -> int -> 'c txn option

  val fold : 'c t -> ('c txn -> 'a -> 'a) -> 'a -> 'a
  (** Over every registered transaction, in no particular order. *)

  val started : 'c txn -> bool

  val outcome : 'c t -> 'c txn -> outcome
  (** Judged over the sites alive now. *)

  val alive : 'c t -> Site_id.t -> bool

  val seal : 'c t -> int -> unit
  (** Close every span still open on the transaction's track 0 (done
      by the core when a transaction settles). *)

  val prof_enter : 'c t -> Prof.bucket -> unit
  (** Bracket client work with the core's profiler; no-ops (no
      allocation) when it has none. *)

  val prof_leave : 'c t -> unit

  val net : 'c t -> wire Network.t

  val stores : 'c t -> Durable_site.t array
  (** Index i = site i+1. *)

  val on : 'c t -> bool
  (** Cached [Trace.on] of the engine's log. *)

  val log : 'c t -> Trace.t

  val topic : 'c t -> Trace.topic

  val log1 : 'c t -> Trace.template -> int -> unit
  (** A line in the core's topic; call sites guard with {!on}. *)

  val log2 : 'c t -> Trace.template -> int -> int -> unit
end
