(** Shared vocabulary of the executable commit protocols.

    One message alphabet serves every protocol in the repository; each
    protocol simply never sends the tags it does not use.  [Probe] is the
    termination protocol's probe(trans_id, slave_id) message
    (Section 5.3); [State_inquiry]/[State_answer] carry the state
    inquiry that Skeen's cooperative termination and quorum commit both
    run ({!Inquiry}); the [Px_*] family carries
    Paxos Commit (Gray & Lamport), one consensus instance per
    participant's prepared/aborted vote. *)

type decision = Commit | Abort

val pp_decision : Format.formatter -> decision -> unit

val equal_decision : decision -> decision -> bool

(** A site's phase, as reported to a state inquiry. *)
type phase = Ph_initial | Ph_wait | Ph_prepared | Ph_committed | Ph_aborted

type msg =
  | Xact  (** master -> slaves: the transaction itself *)
  | Yes  (** slave -> master: intent to commit *)
  | No  (** slave -> master: unilateral abort *)
  | Pre_prepare
      (** master -> slaves: the extra buffering phase of the four-phase
          commit used by the Theorem 10 construction *)
  | Pre_ack  (** slave -> master: pre-prepare acknowledged *)
  | Prepare  (** master -> slaves: 3PC second phase *)
  | Ack  (** slave -> master: prepare acknowledged *)
  | Commit_cmd  (** commit command *)
  | Abort_cmd  (** abort command *)
  | Probe of { trans_id : int; slave : Site_id.t }
      (** termination protocol: sent to the master by a slave that timed
          out in state p *)
  | State_inquiry of { coordinator : Site_id.t }
      (** state inquiry: a terminator polls every site for its phase *)
  | State_answer of { phase : phase }
  | Px_vote of { instance : Site_id.t; ballot : int; prepared : bool }
      (** Paxos phase 2a: the ballot leader (or, at ballot 0, the
          instance's own participant) proposes a vote value for
          [instance] to an acceptor *)
  | Px_accept of { instance : Site_id.t; ballot : int; prepared : bool }
      (** Paxos phase 2b: acceptor -> ballot leader; the acceptor's
          identity is the envelope source *)
  | Px_poll of { ballot : int }
      (** Paxos phase 1a for every instance at once: a would-be leader
          asks acceptors to promise ballot [ballot] *)
  | Px_promise of { ballot : int; accepted : (Site_id.t * (int * bool)) list }
      (** Paxos phase 1b: per non-free instance, the highest
          (ballot, prepared) value this acceptor has accepted *)

val pp_msg : Format.formatter -> msg -> unit

val msg_tag : msg -> string
(** Short stable tag ("xact", "probe", ...) used in traces and tests. *)

(** {1 Binary trace codec} *)

val msg_code : msg -> int
(** Pack a message into one int: bits 0-4 constructor tag, bits 5-14
    site id, bit 15 the [prepared] flag, bits 16-39 the numeric field
    (trans_id / ballot / phase).  Bits 40+ stay free for an enclosing
    wire code. *)

val buf_msg_code : Buffer.t -> int -> unit
(** Render a {!msg_code} byte-identically to {!pp_msg}. *)

val msg_codec : Trace.template * (msg -> int)
(** Ready-made [payload_codec] for [Network.create] when the payload
    type is {!msg}. *)
