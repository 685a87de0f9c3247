(** A strict two-phase-locking lock manager for one site.

    Exclusive and shared locks with FIFO queueing; locks are held until
    the owning transaction's commit protocol decides (strictness), which
    is exactly why a {e blocked} commit protocol is expensive: the
    blocked transaction's locks pin its data until the partition heals.

    There is no deadlock detector because none is needed.  Each
    transaction asks for its whole lock set in one step, one request per
    key, and a request never passes one already queued on its key.  So
    every transaction a queued request waits on (its key's holders and
    the requests queued ahead of it) asked before it did, and the
    waits-for graph, whose edges all point at earlier transactions, has
    no cycle. *)

type mode = Shared | Exclusive

type grant = { tid : int; key : string; mode : mode }

type t

val create : unit -> t

val acquire : t -> tid:int -> key:string -> mode:mode -> [ `Granted | `Waiting ]
(** Granted when nobody is queued on [key] and every holder is
    compatible with [mode]; queued otherwise.  A transaction requests a
    key at most once while it holds or waits for it. *)

val release_all : t -> tid:int -> grant list
(** Frees every lock and queue entry of [tid]; returns the requests
    granted as a consequence, in grant order.  Keys left with no holder
    and no waiter are forgotten, so the cost follows the keys currently
    locked, not every key ever locked. *)

val purge : t -> keep:(int -> bool) -> grant list
(** Frees every lock and queue entry whose tid fails [keep]; returns,
    key by key, the queued requests it dropped and then the requests
    granted as a consequence: every request that no longer waits.  Used
    when a site crashes, since a crashed site serves no lock requests:
    its volatile lock table is rebuilt with only the in-doubt (prepared)
    transactions' locks, which the WAL pins until the group outcome is
    known, and each dropped waiter stops waiting on the site. *)

val holders : t -> key:string -> (int * mode) list
(** In grant order. *)

val queued : t -> key:string -> (int * mode) list
(** In FIFO order. *)

val wait_depth : t -> int
(** Total queued (waiting) lock requests across every key — the
    lock-wait-depth gauge sampled at telemetry cuts. *)

val live_keys : t -> int
(** Number of keys in the table.  Only keys with a holder or a waiter
    are kept, so this is also the number of keys a release walks. *)
