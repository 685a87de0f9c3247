(** The FSA interpreter: a declarative commit-protocol FSA (from
    [Commit_fsa]) plus an assignment of timeout and undeliverable-message
    (UD) transitions, run as an executable {!Site.S} actor.

    Every protocol the paper states as a bare master/slave FSA runs
    here: 2PC and 3PC with no assignment, and extended 2PC and the
    Section 3 strawman with the assignments Rules (a)/(b) give them (the
    five definitions at the end).  {e Lemma 3 is an exhaustive
    experiment} on the same interpreter: [tp_sim lemma3] runs every
    assignment of timeout/UD outcomes for 3PC's waiting states (4^4 of
    them) and checks that each one either violates atomicity or blocks
    somewhere on an adversarial grid.

    Interpretation semantics:
    - base transitions follow the FSA; a slave's vote picks between the
      yes/no branches out of its initial state;
    - an abort command moves any non-final slave state to abort: the
      network is not FIFO, so an abort can overtake [xact];
    - entering a waiting state with an assigned timeout arms the Fig. 5
      timer (master 2T, slave 3T);
    - a timeout or returned message in a state with an assigned outcome
      jumps to that role's commit/abort state; the {e master} also
      broadcasts the matching command unless it entered its state by
      sending that very command (extended 2PC's p1 commits silently);
    - a message no transition reads logs ["ignoring <msg> in <state>"];
      a UD in a state with no assigned outcome logs ["UD(<msg>) ignored
      in <state>"] and is dropped, so the site can block, which the
      verdicts detect.

    Each decision carries one of these reasons: ["voted no"], ["received
    a no vote"], ["all yes votes received"], ["all acks received"],
    ["commit command"], ["abort command"], ["<state> timeout -> commit"]
    (or [abort]) and ["UD(<msg>) in <state> -> commit"] (or [abort]).

    [make] compiles the FSA once: each state becomes a record of its
    kind, its timeout and UD outcomes and its edges indexed by message,
    so a delivery is an array lookup. *)

type outcome = [ `To_commit | `To_abort ]

type assignment = {
  timeouts : ((Commit_fsa.Machine.role * string) * outcome) list;
  uds : ((Commit_fsa.Machine.role * string) * outcome) list;
}

val make : name:string -> Commit_fsa.Machine.t -> assignment -> Site.packed
(** The protocol is blocking by design exactly when the assignment is
    empty.
    @raise Invalid_argument if the FSA fails validation, if an
    assignment mentions an unknown or final state, if a message tag has
    no {!Types.msg} counterpart, or if a role has no commit or abort
    state. *)

val waiting_states :
  Commit_fsa.Machine.t -> (Commit_fsa.Machine.role * string) list
(** The states an assignment ranges over (non-final, message-awaiting,
    entered by some transition), master's first — the enumeration
    domain of Lemma 3.  A slave's initial state is left out: no timer
    runs there, and a site in it has sent nothing that could bounce. *)

val all_assignments : Commit_fsa.Machine.t -> assignment list
(** Every total assignment of both timeout and UD outcomes over
    {!waiting_states} — [4^k] of them for [k] waiting states.  3PC has
    [k = 4] (w1, p1, w, p), giving 256. *)

(** {1 Theorem 10's classes} *)

type classes = {
  m : string;  (** the tag of m *)
  before_m : Commit_fsa.Analysis.site_state list;
  after_m : Commit_fsa.Analysis.site_state list;  (** p1 and p *)
}

val classify : Commit_fsa.Machine.t -> (classes, string) result
(** The {!waiting_states} on either side of m, the message that moves a
    slave into the one slave waiting state concurrent with a commit (p,
    entered on the prepare).  Four-phase commit's x1 and x are before m,
    though every slave has voted yes there.  An FSA that fails
    {!Commit_fsa.Analysis.satisfies_lemmas} at n = 3 gives the lemma and
    its states instead (2PC: ["Lemma 1 violated at slave:w"]). *)

(** {1 The compiled form}

    What {!make} runs.  [Commit_termination.Termination] attaches
    Theorem 10's rules to it by {!side}; {!Inquiry} attaches its poll. *)

type send = To_slaves of Types.msg | To_master of Types.msg

val send : Ctx.t -> send list -> unit

type edge = private {
  target : int;  (** index into the compiled states *)
  sends : send list;
  collect : bool;  (** taken once every slave has sent its message *)
  reason : string;
}

type jump

type state = private {
  id : string;
  final : Types.decision option;
  edges : edge option array;
  timeout : jump option;
  ud : jump option;
  label : Label.t;  (** ["<id>-timeout"] *)
}

type compiled = private {
  states : state array;
  initial : int;
  commit : int;
  abort : int;
  mult_t : int;  (** Fig. 5's timeout: 2 (master) or 3 (slave) *)
}

val compile :
  Commit_fsa.Machine.t -> Commit_fsa.Machine.role -> vote_yes:bool -> compiled
(** One role with no timeout or UD transitions, its states in the FSA's
    order.  @raise Invalid_argument as {!make} does. *)

val edge : state -> Types.msg -> edge option
(** An array lookup by {!Types.msg_code}. *)

val start_edge : state -> edge option

type side = Plain | Before_m | After_m

val side : classes -> Commit_fsa.Machine.role -> state -> side
(** A compiled state's Theorem 10 class; [Plain] for initial and final
    states. *)

(** {1 The protocols} *)

val two_phase : Site.packed
(** ["2pc"], Fig. 1: {!Commit_fsa.Catalog.two_phase} with no timeout or
    UD transitions.  Under a partition (or a silent master) every
    in-doubt site blocks, holding its locks — the behaviour whose cost
    motivates the paper.  The master decides when it sends the
    commands. *)

val ext_two_phase : Site.packed
(** ["ext2pc"], Fig. 2: Rules (a)/(b) applied to
    {!Commit_fsa.Catalog.extended_two_phase} at [n = 2], two-phase commit
    with an acknowledgement phase.  The derived transitions:
    - master w1: timeout -> abort; UD -> abort;
    - master p1 (commits sent, awaiting acks): timeout -> commit (a
      slave commit state is in C(p1)); UD -> abort (the sender set of p1
      is the slave wait state, whose timeout goes to abort);
    - slave w: timeout -> abort; UD -> abort.

    The rules are necessary and sufficient for two-site simple
    partitioning with return of messages, so at [n = 2] the protocol is
    resilient; Section 3 shows it inconsistent for [n >= 3], which the
    fig2 bench reproduces. *)

val three_phase : Site.packed
(** ["3pc"], Fig. 3: {!Commit_fsa.Catalog.three_phase} with no timeout
    or UD transitions.  It satisfies Lemmas 1 and 2 (no local state is
    concurrent with both outcomes; no noncommittable state is concurrent
    with a commit) but blocks under a partition, like 2PC.  It is the
    substrate the termination protocol makes resilient. *)

val three_phase_rules : Site.packed
(** ["3pc+rules"]: 3PC with {e only} timeout and UD transitions, the
    strawman of Sections 3 and 4, in the paper's commit-leaning reading.
    Timeout and UD alike send w1 -> abort, p1 -> commit, w -> abort and
    p -> commit.  The Section 3 narrative ("site2 will timeout and
    commit") presumes this reading.  It violates atomicity with a
    single-slave cut, the paper's own counterexample: a partition makes
    prepare3 undeliverable, the master commits, and the cut-off slave
    aborts in w. *)

val three_phase_rules_strict : Site.packed
(** ["3pc+rules-strict"]: Rules (a)/(b) applied mechanically to
    {!Commit_fsa.Catalog.three_phase} at [n = 3] over the failure-free
    concurrency sets.  Master p1 times out to {e abort} (C(p1) holds no
    commit state), and the p-state UD transitions go to abort; slave p
    still times out to commit.  Lemma 3 says every reading fails, and
    the two differ only in where: this one survives single-slave cuts
    but violates atomicity when a cut of two or more slaves splits the
    acks.  One G2 slave's ack passes B, the other's bounces, the master
    times out in p1 and aborts while the acked, cut-off slave times out
    in p and commits.  The fig3 bench shows both readings. *)
