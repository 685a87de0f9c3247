(** The paper's contribution: the termination protocol that makes
    (modified) three-phase commit resilient to optimistic multisite
    simple network partitioning (Sections 5 and 6).

    The commit-protocol skeleton is the modified 3PC of Fig. 8 (slaves
    accept a commit in state w).  On top of it, the termination actions
    of Section 5.3:

    {b Master} (site 1):
    - w1, timeout 2T: abort, send abort_1..n.
    - w1, UD(xact): abort, send abort_1..n.
    - p1, timeout 2T with no UD(prepare) seen: commit, send commit_1..n
      (every prepare was delivered, so every G2 slave will commit).
    - p1, UD(prepare_i): start a 5T {e collection window}; accumulate
      UD := slaves whose prepare bounced, PB := slaves that probed.  At
      the window's end: if [slaves − UD = PB] then abort all else commit
      all.  (The paper writes [N − UD = PB] with N "the set of sites";
      Lemma 4's proof equates [N − UD] with "the set of all slaves in
      G1", so N must be read as the slave set — see DESIGN.md.)

    {b Slave} i:
    - w, timeout 3T: wait a further 6T for a command; a commit decides
      commit, an abort or the 6T expiry decides abort.
    - w, UD(yes_i): abort and send abort_1..n (the master can never have
      collected all votes).
    - p, UD(ack_i): commit and send commit_1..n (this slave is in G2 and
      holds a prepare: it commits the whole group — "idea 6").
    - p, timeout 3T: send probe(trans_id, i) to the master, then wait:
      UD(probe) means "I am in G2, the master is unreachable" — commit
      and send commit_1..n; a command decides accordingly.  The {e
      static} variant waits indefinitely (valid when partitions never
      heal mid-protocol); the {e transient} variant (Section 6) commits
      after a 5T wait, which is safe because only case 3.2.2.2 — in
      which the master has committed — exceeds 5T.

    {b Theorem 10, constructively.}  The paper's last theorem: {e any}
    master/slave commit protocol satisfying Lemma 1 and Lemma 2 can be
    made resilient by rebuilding the Section 5.2 ideas around the
    message m that moves slaves from their last noncommittable state to
    a committable one.  {!CONFIG.four_phase} carries the construction
    out for {b four-phase commit} ([Commit_fsa.Catalog.four_phase] —
    vote, pre-prepare, prepare, commit), whose m is still the prepare.
    It adds only the round before m:
    - the master sends pre-prepare once every slave voted yes and waits
      in x1; a 2T timeout or a UD(pre-prepare) aborts everyone (no
      prepare exists, so no slave anywhere can commit);
    - a slave pre-acks and waits in x; a 3T timeout enters the same 6T
      window as w (accepting an early commit — the Fig. 8 acceptance
      generalised to both noncommittable states), and a bounced pre-ack
      aborts its side, as a bounced yes does;
    - the master sends the prepare once every slave pre-acked.
    From m on it is the three-phase protocol above, with the same
    decision tags.

    Decisions are annotated (see {!Commit_protocols.Runner.site_result}
    reasons) with stable strings of the form ["fact1-case3"] /
    ["fact2-case2"] matching the proof's case analysis, so tests can
    audit that every commit happened through a case FACT 1 / FACT 2
    allows. *)

type variant = Static | Transient

val fact1_reasons : string list
(** The exact reason strings a slave may carry on a commit decision —
    FACT 1's six cases.  (The failure-free flow is case 1: a commit
    received from the master.)  The transient variant adds
    ["transient-5t-commit"]. *)

val fact2_reasons : string list
(** The reason strings the master may carry on a commit decision —
    FACT 2's three cases. *)

val slave_abort_reasons : string list
(** The reason strings a slave may carry on an abort decision:
    ["voted-no"], ["abort-cmd"], ["w2-expired"], ["ud-yes"] and, in
    four-phase commit, ["ud-pre-ack"]. *)

val master_abort_reasons : string list
(** The reason strings the master may carry on an abort decision:
    ["w1-timeout"], ["ud-xact"], ["no-vote"], ["collect-abort"] and, in
    four-phase commit, ["x1-timeout"] and ["ud-pre-prepare"]. *)

module type CONFIG = sig
  val variant : variant

  val four_phase : bool
  (** Four-phase commit instead of three-phase: the master runs the
      pre-prepare round (master state x1, slave state x) before m, the
      prepare. *)

  val fig8_w_commit : bool
  (** Whether slaves accept a commit command in state w (the Fig. 8
      modification).  The real protocol requires [true]; [false] exists
      only for the fig8 ablation bench, which shows the inconsistency
      the paper's "fly in the ointment" paragraph predicts. *)

  val collect_window_mult : int
  (** The master's UD/probe collection window, in multiples of T.  The
      paper derives 5 (Fig. 6); smaller values let the window close
      before the last legitimate probe and are provided for the
      window-necessity ablation. *)

  val wait_window_mult : int
  (** The slave's post-w wait, in multiples of T.  The paper derives 6
      (Fig. 7). *)
end

module Make (_ : CONFIG) : Site.S

module Static : Site.S
(** Section 5.3, ["termination"]. *)

module Transient : Site.S
(** Section 6, ["termination-transient"]. *)

module With_windows (_ : sig
  val collect_window_mult : int

  val wait_window_mult : int
end) : Site.S
(** The static protocol with shortened (or lengthened) windows — the
    ablation showing the paper's 5T/6T are minimal. *)

module Static_without_fig8 : Site.S
(** The ablation: Section 5.3 over the {e unmodified} 3PC slave
    (["termination-nofig8"]).  Not resilient — see Fig. 8. *)

module Four_phase : Site.S
(** Theorem 10 over four-phase commit, static partitions
    (["4pc-termination"]). *)
