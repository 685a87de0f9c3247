(** Rule(a)/Rule(b) augmentation (Skeen & Stonebraker, reviewed in
    Section 2 of the paper).

    Rule(a): a waiting state whose concurrency set contains a commit
    state gets a timeout transition to commit; otherwise to abort.

    Rule(b): a waiting state s, on receiving an undeliverable message,
    follows the timeout assignment of the states in its sender set S(s)
    — the peers it was waiting on will time out, so s must match them.
    When S(s) mixes senders whose timeout assignments disagree, the rule
    is {e ambiguous}; the paper's Section 3 observations and Lemma 3 show
    this is where the rules stop being sufficient in the multisite case.

    These two rules are proved necessary and sufficient for {e two-site}
    simple partitioning with return of messages; applying them for
    n >= 3 produces the broken protocols our simulation benches then
    exhibit as counterexamples. *)

type outcome = To_commit | To_abort

type assignment = {
  state : Analysis.site_state;
  timeout : outcome;  (** Rule(a) *)
  on_undeliverable : outcome option;
      (** Rule(b); [None] when the sender set's timeout outcomes
          disagree. *)
  sender_outcomes : (Analysis.site_state * outcome option) list;
      (** The evidence for Rule(b): each sender state and its own
          timeout assignment (None for final sender states, which never
          time out). *)
}

type t = {
  analysis : Analysis.t;
  assignments : assignment list;  (** one per occupied waiting state *)
}

val apply_rules : Analysis.t -> t

val assignment_for : t -> Analysis.site_state -> assignment option

val ambiguous : t -> assignment list
(** Assignments where Rule(b) could not decide. *)

val pp : Format.formatter -> t -> unit
