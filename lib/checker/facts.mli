(** Auditing runs of the termination protocol against the proof's case
    analysis (Section 5.4).

    FACT 1 lists the only six ways a slave in G2 may come to commit;
    FACT 2 the only three ways a site in G1 (the master and, through it,
    the G1 slaves) may.  The termination protocol implementation tags
    every decision with the case it took; this module checks that every
    decision in a run is tagged with an admissible case, giving the
    proofs an executable counterpart. *)

type problem = {
  site : Site_id.t;
  decision : Types.decision;
  reason : string;  (** the offending tag ("-" if the site carried none) *)
  detail : string;
}

val pp_problem : Format.formatter -> problem -> unit

val audit : Runner.result -> (unit, problem list) result
(** Checks every decided, non-crashed site of a termination-protocol
    run; a ["4pc-termination"] run is judged as the static variant.
    @raise Invalid_argument when applied to a result produced by a
    different protocol (the tags would be meaningless). *)

val admissible_commit_reasons_slave : variant:Termination.variant -> string list

val admissible_commit_reasons_master : string list
