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
    master/slave commit protocol satisfying Lemmas 1 and 2 can be made
    resilient by rebuilding the Section 5.2 ideas around the message m
    that moves slaves from their last noncommittable state to a
    committable one.  {!Make} takes the protocol as a catalog FSA
    ({!CONFIG.fsa}), rejects it unless both lemmas hold, and runs its
    base transitions as {!Fsa_actor} compiles them.  m moves a slave
    into the one slave waiting state concurrent with a commit: p,
    entered on the prepare.  The rules attach by class: waiting states
    before m (w1, w, and four-phase commit's x1 and x) get the abort
    timeouts, the ["ud-<tag>"] aborts and the 6T wait; the states from
    m on (p1, p) get the rest.  [Analysis.committable] alone would
    misclass x1 and x: every slave has voted yes there, yet no prepare
    exists, so the protocol must abort.

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

type classes = {
  m : string;  (** the tag of m *)
  before_m : Commit_fsa.Analysis.site_state list;
  after_m : Commit_fsa.Analysis.site_state list;  (** p1 and p *)
}

val classify : Commit_fsa.Machine.t -> (classes, string) result
(** The waiting states on either side of m, or why the construction
    does not apply: the lemma and its states (2PC: ["Lemma 1 violated at
    slave:w"]) for an FSA that fails
    {!Commit_fsa.Analysis.satisfies_lemmas} at n = 3. *)

module type CONFIG = sig
  val variant : variant

  val fsa : Commit_fsa.Machine.t
  (** The paper's is [Commit_fsa.Catalog.modified_three_phase], whose
      slaves accept a commit in w (Fig. 8).  Over
      [Commit_fsa.Catalog.three_phase] it is the Fig. 8 ablation, which
      shows the inconsistency the paper's "fly in the ointment"
      paragraph predicts. *)

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
(** @raise Invalid_argument ["Termination: <fsa>: <why>"] when
    {!classify} gives an error. *)

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
(** The ablation: Section 5.3 over unmodified 3PC,
    [Commit_fsa.Catalog.three_phase] (["termination-nofig8"]).  Not
    resilient — see Fig. 8. *)

module Four_phase : Site.S
(** Theorem 10 over four-phase commit, [Commit_fsa.Catalog.four_phase],
    static partitions (["4pc-termination"]). *)
