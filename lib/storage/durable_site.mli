(** A single site's durable transaction state — the paper's Section 2
    scheme, executable.

    Stable storage holds the write-ahead log and the database; staged
    updates (the "partially executed transaction") are volatile.  The
    commit sequence is: force the {!Wal.Commit_log} record (with the
    update information), then apply the updates to the database, then
    write {!Wal.End}.  A crash at any point is recovered by {!recover}:

    - transactions with a commit log but no end record are {e redone} —
      safe because updates are idempotent;
    - transactions that reached [Prepared] but have no decision are
      reported {e in doubt} (a 3PC participant must ask the termination
      protocol, not decide locally);
    - transactions with only a [Begin] are aborted, exactly as the paper
      prescribes ("immediately upon recovery the site will abort"). *)

type t

type recovery_report = {
  redone : int list;  (** committed transactions whose updates were replayed *)
  in_doubt : int list;
      (** prepared (or caller-declared undecided) — escalate to the
          termination protocol rather than decide locally *)
  aborted : int list;  (** begun but never prepared/committed *)
}

val create : unit -> t

val of_stable : wal:Wal.record list -> db:Kv.t -> t
(** A site restarted from its stable storage alone: the WAL (in append
    order, taken as is) and the database it owns from now on.  No
    volatile state survives, so {!recover} is the next thing to call. *)

val begin_transaction : t -> tid:int -> unit
(** @raise Invalid_argument if the tid was already begun. *)

val stage : t -> tid:int -> Wal.update list -> unit
(** Buffer updates in volatile memory (repeatable; replaces earlier
    staging for the tid).  Staging after [prepare] additionally forces
    a {!Wal.Stage} record: an in-doubt site must be able to commit
    after a restart, and volatile staging would not survive one. *)

val staged : t -> tid:int -> Wal.update list

val prepare : t -> tid:int -> unit
(** Force the staged update information (as a {!Wal.Stage} record, when
    non-empty) and then a [Prepared] record: 3PC state p must survive
    restarts, and so must the updates a post-restart commit would
    apply. *)

val commit : t -> ?crash_after:int -> tid:int -> unit -> unit
(** Force the commit log, then apply the staged updates and write
    [End].  [crash_after n] injects a crash after [n] updates have been
    applied: the site loses volatile state and no [End] is written —
    the recovery tests' bread and butter. *)

val abort : t -> tid:int -> unit

val crash : t -> unit
(** Lose all volatile state (staged updates).  Stable WAL and database
    survive. *)

val recover : ?undecided:int list -> t -> recovery_report
(** Redo incomplete committed transactions (idempotently), abort
    unprepared ones, report prepared-undecided ones.  For each in-doubt
    transaction the staged updates are restored from its forced
    {!Wal.Stage} record, so a subsequent [commit] applies them.
    Recovering an already-recovered site is harmless: the database is
    unchanged and the report reaches a fixpoint after the first call.

    [undecided] lists active tids whose fate the caller knows is still
    open group-wide (the termination protocol can commit a transaction
    whose crashed participant had voted yes but not yet forced its
    prepare record).  Those are kept active and reported in doubt
    instead of being aborted unilaterally; the caller adopts the group's
    decision, re-staging updates as needed.  Default: [[]], the paper's
    unilateral-abort rule. *)

val read : t -> string -> string option

val database : t -> Kv.t

val forget : t -> tid:int -> unit
(** Drop an ended transaction (its log holds [End] or an abort record):
    its {!status} becomes [`Unknown] and its records leave the log, a
    batch at a time.  The caller forgets a tid only once no site can
    still need its record; a forgotten tid is never begun again.  Any
    other tid is left as it is. *)

val wal_records : t -> Wal.record list
(** In append order, without the records of forgotten tids. *)

val status :
  t -> tid:int -> [ `Unknown | `Active | `Prepared | `Committed | `Aborted | `Ended ]
(** O(1): backed by a per-tid last-record index maintained on append,
    not a scan of the WAL. *)

val pp : Format.formatter -> t -> unit
