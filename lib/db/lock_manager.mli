(** A strict two-phase-locking lock manager for one site.

    Exclusive and shared locks with FIFO queueing; locks are held until
    the owning transaction's commit protocol decides (strictness), which
    is exactly why a {e blocked} commit protocol is expensive: the
    blocked transaction's locks pin its data until the partition heals.
    The transaction manager runs {!find_cycle} over every site's
    {!waits_for_edges} for deadlock detection. *)

type mode = Shared | Exclusive

val pp_mode : Format.formatter -> mode -> unit

type grant = { tid : int; key : string; mode : mode }

type t

val create : unit -> t

val acquire : t -> tid:int -> key:string -> mode:mode -> [ `Granted | `Waiting ]
(** Re-acquiring a lock already held is granted immediately; a sole
    shared holder requesting exclusive is upgraded.  A queued request
    is granted once its own transaction is the key's only holder, so a
    transaction that writes and reads one key never waits on itself. *)

val holds : t -> tid:int -> key:string -> mode option

val release_all : t -> tid:int -> grant list
(** Frees every lock and queue entry of [tid]; returns the requests
    granted as a consequence, in grant order.  Keys left with no holder
    and no waiter are forgotten, so the cost follows the keys currently
    locked, not every key ever locked. *)

val purge : t -> keep:(int -> bool) -> grant list
(** Frees every lock and queue entry whose tid fails [keep]; returns
    the requests granted as a consequence, in key order.  Used when a
    site crashes: its volatile lock table is rebuilt with only the
    in-doubt (prepared) transactions' locks, which the WAL pins until
    the group outcome is known. *)

val holders : t -> key:string -> (int * mode) list

val queued : t -> key:string -> (int * mode) list

val wait_depth : t -> int
(** Total queued (waiting) lock requests across every key — the
    lock-wait-depth gauge sampled at telemetry cuts. *)

val live_keys : t -> int
(** Number of keys in the table.  Only keys with a holder or a waiter
    are kept, so this is also the number of keys a release walks. *)

val waits_for_edges : t -> (int * int) list
(** [(waiter, holder)] pairs. *)

val find_cycle : (int * int) list -> int list option
(** Some deadlocked cycle of tids in a waits-for graph given as
    [(waiter, holder)] edges, possibly the union of several sites' (each
    waits for the next, the last for the first), if any. *)

val pp : Format.formatter -> t -> unit
