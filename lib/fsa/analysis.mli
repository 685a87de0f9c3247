(** Static analyses from the paper: concurrency sets, sender sets,
    committability, and the Lemma 1 / Lemma 2 structural conditions.

    Definitions (Section 2):
    - {b Concurrency set} C(s): all local states potentially concurrent
      with s in the (failure-free) execution of the protocol.
    - {b Sender set} S(s): the states from which some transition sends a
      message receivable in s.
    - A local state is {b committable} if its occupancy by any site
      implies every site has voted yes; otherwise {b noncommittable}.

    Lemma 1: resilience to optimistic multisite simple partitioning
    requires no local state whose concurrency set contains both a commit
    and an abort state.  Lemma 2: ... no noncommittable state whose
    concurrency set contains a commit state. *)

type site_state = Machine.role * string

val pp_site_state : Format.formatter -> site_state -> unit

val compare_site_state : site_state -> site_state -> int

type t

val analyze : ?max_states:int -> Machine.t -> n:int -> t
(** Explores the global state space for [n] sites and computes all
    analyses.  [n >= 2]. *)

val protocol : t -> Machine.t

val n_sites : t -> int

val concurrent_kinds : t -> site_state -> Machine.state_kind list
(** The kinds present in C(s). *)

val sender_set : t -> site_state -> site_state list
(** S(s) — static, derived from the transition structure. *)

val committable : t -> site_state -> bool
(** True iff every reachable global state occupying s has all sites
    voted yes.  (States never occupied in any reachable global state are
    vacuously committable.) *)

val lemma1_violations : t -> site_state list
(** States with both a commit and an abort in their concurrency set. *)

val lemma2_violations : t -> site_state list
(** Noncommittable states with a commit in their concurrency set. *)

val satisfies_lemmas : t -> bool
(** No violations of either lemma — the Theorem 10 precondition. *)

val terminal_outcomes : t -> [ `All_commit | `All_abort | `Mixed ] list
(** Outcome classes over terminal reachable global states; a correct
    commit protocol never produces [`Mixed] in failure-free execution. *)

val pp_report : Format.formatter -> t -> unit
(** Human-readable summary (used by the fig2/fig3/thm10 benches). *)
