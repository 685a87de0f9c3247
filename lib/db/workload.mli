(** Workload generators for the transaction-manager experiments.

    Three families, mirroring the motivation in the paper's
    introduction (availability of data under failures):

    - {!bank_transfers}: each transaction moves an amount between two
      accounts on {e different} sites; account pairs are disjoint across
      transactions, so the invariant "total balance is conserved" holds
      for {e any} subset of transactions committing atomically — and
      breaks exactly when a commit protocol tears a transaction apart.
    - {!hot_spot}: every transaction updates one contended key plus a
      private key; measures how lock queues build up behind a blocked
      transaction.
    - {!uniform_mix}: random write sets over a small key space spread
      across all sites; exercises cross-site lock queueing. *)

type t = {
  initial : (Site_id.t * (string * string) list) list;
      (** per-site initial database contents *)
  txns : Tm.txn_spec list;
}

val bank_transfers :
  n:int ->
  pairs:int ->
  balance:int ->
  amount:int ->
  spacing:Vtime.t ->
  seed:int64 ->
  t
(** [pairs] transfer transactions (tids 1..pairs), the j-th starting at
    [j * spacing].  Every account starts at [balance]; each transfer
    moves [amount] from the debtor to the creditor. *)

val expected_total : t -> prefix:string -> int
(** The conserved total for {!bank_transfers} workloads. *)

val transfer :
  tid:int ->
  start_at:Vtime.t ->
  debtor:Site_id.t ->
  creditor:Site_id.t ->
  balance:int ->
  amount:int ->
  Tm.txn_spec
(** A single self-contained transfer for {e open-ended} streams (the
    cluster runtime): the transaction creates its own two accounts
    ["acct:<tid>:d"] / ["acct:<tid>:c"] with final values
    [balance - amount] / [balance + amount].  A committed transfer adds
    exactly [2 * balance] to the cluster's books, an aborted one adds
    nothing, and a {e torn} one adds a value distinguishable from both —
    which is what the continuous atomicity auditor keys on.

    @raise Invalid_argument if the sites coincide or
    [amount >= balance]. *)

val transfer_contributions : Tm.txn_spec -> (Site_id.t * int) list
(** Per-site money the transaction deposits if that site commits (the
    sum of its integer write values) — the auditor's per-site
    contribution ledger. *)

val hot_spot :
  n:int -> txns:int -> spacing:Vtime.t -> t
(** All transactions write the key ["hot"] at site 2 plus a private
    key. *)

val inventory :
  n:int ->
  items:int ->
  orders:int ->
  contention:float ->
  spacing:Vtime.t ->
  seed:int64 ->
  t
(** An order shop: item [i] lives at a warehouse site (sites 2..n,
    round-robin); selling it writes the owner tag at the warehouse
    {e and} a matching receipt at the accounting site (site 1) — two
    sites, one transaction.  [contention] is the probability that an
    order targets an already-targeted item (lock conflicts, serialised
    by 2PL; the later order overwrites both cells).  The invariant
    checked by {!inventory_consistent}: for every item, the warehouse
    owner equals the accounting receipt — exactly the cross-site
    atomicity the commit protocol must provide. *)

val inventory_consistent : Tm.report -> (unit, string) result
(** [Error] describes the first item whose warehouse owner and
    accounting receipt disagree (a torn order). *)

val uniform_mix :
  n:int ->
  txns:int ->
  keys_per_txn:int ->
  key_space:int ->
  spacing:Vtime.t ->
  seed:int64 ->
  t
(** Random exclusive write sets over [key_space] keys spread across all
    sites; adjacent transactions overlap and queue on each other's
    keys. *)
