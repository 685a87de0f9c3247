(** Three-phase commit with a state-inquiry termination: Skeen's
    cooperative termination protocol for {e site failures} (the paper's
    reference [4]) and quorum-based commit (reference [5]).

    Both run {!Commit_fsa.Catalog.three_phase} as {!Fsa_actor.compile}
    builds it when nothing fails.  When a site times out or gets a
    message back (it lost its master or, indistinguishably, got cut off)
    it polls every site for its phase, waits one round trip, decides
    over the answers it got and tells every other site.  The two
    protocols differ only in the rule applied when the window closes
    and in whether a returned message restarts a running poll.

    {b Cooperative termination} ([skeen], ["3pc-skeen"]) polls once:
    + any committed respondent: commit;  any aborted: abort;
    + no respondent (nor self) prepared: abort — nobody can have
      committed, since commitment requires every site prepared;
    + someone prepared: move the wait-state respondents to prepared
      (second prepare round), then commit everyone reachable.

    It is the protocol the paper's Section 7 contrasts with ("the
    termination protocol to be taken for network partitioning is
    different from the termination protocol to be taken for master site
    failure which has been proposed by Dale Skeen").  Under site
    failures, the master's included, and {e no} partition it is
    nonblocking and consistent, which the master-failure tests verify.
    Under a network partition it is {e inconsistent}: the two sides run
    independent terminators over different evidence (the G1 side holds
    a prepared site and commits while the G2 side, all waiters,
    aborts).  That contrast is why the paper needs a different
    termination protocol for partitioning; the [ref4] bench shows it.

    {b Quorum termination} ([quorum], ["quorum"]) decides over the group
    it can reach, and every returned message starts a new poll round:
    - any committed member: commit;  any aborted member: abort;
    - a prepared member and group weight >= commit quorum [V_C]: commit;
    - no prepared member and group weight >= abort quorum [V_A]: abort;
    - otherwise stay blocked and re-poll every 5T.

    Every site has a vote weight [V_i], and [V_C + V_A > sum V_i], so
    the two sides of a static simple partition never decide differently.
    A side without a quorum {e blocks}, precisely the availability loss
    the paper's termination protocol avoids (at the price of its
    stronger model assumptions).  After a heal two terminators may decide
    from two polls, for nothing binds a respondent to either: [tp_sim run
    -p quorum --g2 2,3 --at 969 --heal 3050 --delay uniform --seed 1]
    commits at site3 and aborts at site2.

    {b The poll on 3PC's states.}  A site answers with the phase of its
    compiled state: initial, final, or its {!Fsa_actor.side} (w1 and w
    wait; p1 and p are prepared).  Five rules are the poll's own:
    + a commit or abort command from any site decides any non-final
      state, the master's included;
    + a slave answers whoever sent it the message it acts on: a site in
      w acks a prepare to a re-preparing terminator, not the master;
    + entering a waiting state arms its Fig. 5 timer only when no poll
      runs; its timeout starts one (["<state> timeout"]);
    + on a final edge the master decides, then tells the slaves; a slave
      that votes no sends it first;
    + inquiries, answers and re-prepare acks come before the edges; a
      message with no edge logs ["ignoring <msg> in <state>"]. *)

type weight = Site_id.t -> int
(** A site's vote weight [V_i]; must be positive. *)

val one_vote : weight
(** Every site one vote: majority quorums. *)

val total_weight : weight -> n:int -> int

val commit_quorum : weight -> n:int -> int
(** [V_C]: a strict majority of the total weight. *)

val abort_quorum : weight -> n:int -> int
(** [V_A]: the least weight with [V_C + V_A > sum V_i]. *)

val skeen : Site.packed
(** ["3pc-skeen"]: cooperative termination. *)

val quorum : Site.packed
(** ["quorum"]: quorum termination with {!one_vote}. *)

val weighted_quorum : weight -> Site.packed
(** ["quorum"] with arbitrary positive weights, e.g. a heavier master
    so the master's side stays live in more cuts. *)
