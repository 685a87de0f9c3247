(** Acceptor-majority audit for Paxos Commit runs.

    A commit is only safe if {e every} participant's consensus instance
    chose Prepared, and a value is only chosen once a majority of
    acceptors accepted it at one ballot.  This module reconstructs that
    evidence from the wire: feed it the {!Network.event} stream of a
    run (via [Runner.run ~tap]) and it checks, for each committed run
    and each instance, that some ballot accumulated a majority of
    distinct accepting acceptors.

    The count is a documented {e over}-approximation in one place: a
    leader co-located with an acceptor talks to it by function call, so
    its own accept never crosses the wire.  The audit credits the
    ballot owner's co-located acceptor with one accept when it is not
    already a wire sender.  Any shortfall the audit reports is
    therefore a genuine safety gap; a pass certifies the wire evidence
    plus at most one local accept per ballot. *)

type fact = {
  instance : Site_id.t;  (** whose vote this consensus instance decides *)
  ballot : int;  (** the ballot that reached majority *)
  wire_accepts : int;  (** distinct acceptors whose 2b crossed the wire *)
  leader_local : bool;  (** the owner's co-located acceptor was credited *)
  majority : int;
}

type problem = {
  instance : Site_id.t;
  majority : int;
  best : int;  (** strongest support found across all ballots *)
  detail : string;
}

val pp_problem : Format.formatter -> problem -> unit

val audit :
  f:int ->
  Runner.result ->
  Types.msg Network.event list ->
  (fact list, problem list) result
(** [audit ~f result events] checks a run of [Paxos_commit.Make] with
    resilience [f].  A run with no committed site passes vacuously with
    [Ok []]; a committed run yields one {!fact} per instance (ascending
    instance order) or the list of under-supported instances. *)

val collecting_tap :
  unit -> (Types.msg Network.event -> unit) * (unit -> Types.msg Network.event list)
(** [let tap, events = collecting_tap () in Runner.run ~tap ...] —
    the recorded events come back in arrival order. *)
