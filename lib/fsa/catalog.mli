(** The protocols of the paper, as declarative FSAs.

    These definitions power the static analyses (concurrency sets,
    Lemma 1/2 checks, Rule(a)/(b) augmentation).  The executable, timed
    realisations live in [commit_protocols]/[commit_termination]. *)

val two_phase : Machine.t
(** Fig. 1.  Master: q1 -> w1 -> c1/a1.  Slave: q -> w -> c/a.  The master
    decides when it sends the commands. *)

val extended_two_phase : Machine.t
(** The commit-protocol skeleton underlying Fig. 2: two-phase commit
    with an acknowledgement phase (master states q1, w1, p1, c1, a1), the
    shape on which Rule(a)/Rule(b) augmentation yields the extended
    protocol of Skeen & Stonebraker.  The timeout/UD transitions
    themselves are derived by {!Augment.apply_rules}, not baked in. *)

val three_phase : Machine.t
(** Fig. 3.  Master: q1 -> w1 -> p1 -> c1 / a1.  Slave: q -> w -> p -> c,
    with aborts reachable from q (no vote), w. *)

val modified_three_phase : Machine.t
(** Fig. 8: three-phase commit plus the slave transition w -> c on
    receipt of a commit message, required by the termination protocol
    (Section 5.3, "a fly in the ointment"). *)

val quorum_three_phase : Machine.t
(** The quorum-commit skeleton (Skeen 1982, the paper's reference [5]):
    structurally a three-phase protocol — it satisfies Lemmas 1 and 2 —
    whose termination rule (not visible at this level) is quorum-based.
    Used for the Theorem 10 generalisation check. *)

val four_phase : Machine.t
(** Four-phase commit: vote, pre-prepare, prepare, commit.  Satisfies
    Lemma 1/2 with the prepare still being the message m of Theorem 10;
    [Commit_termination.Termination.Four_phase] is the termination
    protocol derived from it. *)

val all : Machine.t list
(** Every catalogued protocol, validated. *)

val find : string -> Machine.t option
(** Look up by {!Machine.t.name}. *)
