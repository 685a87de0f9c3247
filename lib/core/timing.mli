(** The paper's timing constants, all in multiples of T (the longest
    end-to-end propagation delay).

    Figs. 6, 7, 9 derive the termination-protocol windows; Section 6
    tabulates the worst-case wait after a p-state timeout for each
    transient-partition case.  These constants are shared by the
    protocol implementation (lib/core), the checker's bound assertions,
    and the benches.  Fig. 5's commit-protocol timeouts (master 2T,
    slave 3T) belong to the compiled FSA ({!Fsa_actor.compiled}). *)

val collect_window_mult : int
(** 5 — after the first UD(prepare), the master collects further UDs and
    probes for 5T (Fig. 6). *)

val wait_window_mult : int
(** 6 — a slave that timed out in state w waits 6T for a commit before
    aborting (Fig. 7). *)

val probe_window_mult : int
(** 5 — transient variant: a slave that timed out in state p commits if
    5T pass with neither UD(probe) nor a command (Fig. 9, case
    3.2.2.2). *)

(** Section 6's exhaustive case split of a (transient) partition, keyed
    by which message generations crossed boundary B. *)
type case =
  | Case_1  (** no prepare passes B *)
  | Case_2_1  (** some prepares pass, some acks do not pass *)
  | Case_2_2_1  (** some prepares pass, acks pass, some probes do not *)
  | Case_2_2_2  (** some prepares pass, acks pass, all probes pass *)
  | Case_3_1  (** all prepares pass, some acks do not *)
  | Case_3_2_1  (** all prepares and acks pass, all commits pass *)
  | Case_3_2_2_1
      (** all prepares/acks pass, some commits do not, and some probe
          from a commit-missing site does not pass *)
  | Case_3_2_2_2
      (** all prepares/acks pass, some commits do not, all probes pass
          — the only unbounded case, fixed by the 5T self-commit *)

val all_cases : case list

val case_name : case -> string
(** The paper's numbering: "1", "2.1", "2.2.1", ... *)

val pp_case : Format.formatter -> case -> unit

val case_bound_mult : case -> int option
(** Section 6's worst-case wait (after the p-state timeout) for a slave
    to learn the outcome, in multiples of T; [None] for the unbounded
    case 3.2.2.2 and for cases where no slave waits in p at all
    (1 and 3.2.1, which the paper leaves out of its table). *)
