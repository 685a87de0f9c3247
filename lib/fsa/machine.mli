(** Commit protocols as communicating finite-state automata.

    This is the paper's formal model (Section 2, after Skeen &
    Stonebraker): transaction execution at each site is an FSA; the
    network is a common input/output tape; a global transition is one
    local transition that reads messages addressed to the site, writes
    messages, and moves to the next local state.

    Protocols here are {e master/slave} protocols described by two role
    machines; instantiating a protocol for [n] sites gives one master and
    [n-1] identical slaves, which covers every protocol in the paper
    (2PC, extended 2PC, 3PC, quorum 3PC). *)

type role = Master | Slave

val pp_role : Format.formatter -> role -> unit

(** Classification of local states.  [Commit]/[Abort] are the final
    states; a site occupying one has decided. *)
type state_kind = Initial | Intermediate | Commit | Abort

type state = { id : string; kind : state_kind }

(** What a transition waits for. *)
type guard =
  | Start
      (** The user's "request" arriving at the master; enabled once, in
          the master's initial state. *)
  | Recv of string
      (** One message with this tag, from any site. *)
  | Recv_all_votes of string
      (** Master only: one message with this tag from {e every} slave
          (the "all yes" collection step, reading a string of messages
          in a single transition, as Skeen's model allows). *)

type action =
  | Send_slaves of string  (** master broadcasts to all slaves *)
  | Send_master of string  (** slave sends to the master *)

type transition = {
  source : string;
  guard : guard;
  target : string;
  actions : action list;
  votes_yes : bool;
      (** Does taking this transition constitute this site's yes vote?
          (Used for the committable/noncommittable classification.) *)
}

type machine = {
  role : role;
  initial : string;
  states : state list;
  transitions : transition list;
}

type t = { name : string; master : machine; slave : machine }

val validate : t -> (unit, string) result
(** Structural checks: distinct state ids, transitions reference known
    states, the initial state exists, [Start] only in the master's
    initial state, actions match the role. *)

val validate_exn : t -> t
(** @raise Invalid_argument with the first problem found. *)

val kind_of : machine -> string -> state_kind

val is_final : machine -> string -> bool

val machine_of_role : t -> role -> machine

val receivable_tags : machine -> string -> string list
(** Tags some transition out of this state can read. *)

val pp : Format.formatter -> t -> unit
(** Human-readable dump of both role machines. *)

val to_dot : t -> string
(** The protocol as a Graphviz digraph, one cluster per role — the
    repository's rendering of the paper's protocol figures (Figs. 1, 2,
    3, 8).  Commit states are drawn as double circles, abort states as
    double octagons; edge labels read ["guard / actions"]. *)
