(** The continuous atomicity auditor.

    The single-shot checker verdicts ({!Commit_checker.Verdict}) look at
    a finished run; a long-running cluster cannot afford a post-hoc scan
    over every transaction that ever lived.  The auditor instead settles
    each transaction {e incrementally}: the runtime registers a
    transaction's per-site money contributions when it starts, streams
    in per-site decisions as they are made, and the moment the last site
    decides the auditor checks

    - {e agreement}: every site reached the same decision (a mix is the
      paper's atomicity violation — a torn transaction);
    - {e money conservation}: the money actually deposited is what an
      atomic outcome deposits — the full contribution set on commit,
      nothing on abort.  A torn transfer deposits a partial sum and is
      caught the instant it settles, not at the end of the run.

    The auditor also maintains the running ledger ({!applied_total}) of
    every commit it has witnessed, which the runtime cross-checks
    against the durable stores at shutdown: the two agreeing means no
    money appeared or vanished outside the audited decision path.

    An entry is dropped once all [n] sites have recorded the same
    decision (a site that was down records its decision after it
    recovers): the counters and the ledger already hold what the entry
    contributed.  A torn entry is kept, as is one a recovered site's
    late decision disagrees with. *)

type t

val create : n:int -> unit -> t

val begin_txn : t -> tid:int -> contributions:(Site_id.t * int) list -> unit
(** Register a transaction before its first decision.  [contributions]
    lists the money each site deposits if it commits; sites absent from
    the list contribute 0 (they still must decide).
    @raise Invalid_argument on a tid the auditor still holds. *)

val record : t -> tid:int -> site:Site_id.t -> Types.decision -> unit
(** One site's decision.  Repeated identical decisions are ignored; an
    unknown or dropped tid raises.  The transaction settles once every
    live site has decided. *)

val mark_dead : t -> site:Site_id.t -> unit
(** Declare [site] crash-stopped: it is exempt from settling from now
    on, and any open transaction already complete over the surviving
    sites settles immediately.  Agreement and conservation are then
    judged over the decisions actually made — a crash is a fault, not a
    violation. *)

val mark_recovered : t -> site:Site_id.t -> unit
(** Undo {!mark_dead} after the site replays its WAL and rejoins: open
    transactions require its decision again before settling, while
    transactions settled during the outage stay settled (a late
    decision recorded for one of those is still checked for agreement
    and counted toward conservation). *)

val open_txns : t -> int
(** Registered but not yet settled. *)

val settled : t -> int

val agreement_violations : t -> int

val conservation_breaches : t -> int

val torn_tids : t -> int list
(** Ascending; the transactions that settled with mixed decisions. *)

val applied_total : t -> int
(** Money deposited by every commit recorded so far (settled or not) —
    must equal the on-disk account total at all times. *)

val atomic_expected_total : t -> int
(** Money the {e settled} transactions would have deposited had each
    settled atomically (full set on an all-commit, 0 otherwise). *)

val check : t -> (unit, string) result
(** [Ok ()] iff no settled transaction violated agreement or
    conservation. *)

val to_json : t -> Commit_checker.Export.json
