(** The interface every executable commit protocol implements.

    One module = one protocol; the runner instantiates it once per
    participating site.  Protocol modules are pure state machines over
    {!Ctx.t} operations — they never touch the engine or network
    directly, which keeps them within the paper's model. *)

type role =
  | Master_role
  | Slave_role of { vote_yes : bool }
      (** [vote_yes = false]: this slave unilaterally aborts when the
          transaction arrives (sends "no"). *)

module type S = sig
  val name : string
  (** Stable identifier, e.g. ["2pc"], ["termination"]. *)

  val blocking_by_design : bool
  (** Whether the protocol is expected to block under partition (used by
      the checker to phrase verdicts; e.g. 2PC blocks, quorum blocks the
      minority side). *)

  type t

  val create : Ctx.t -> role -> t

  val begin_transaction : t -> unit
  (** The user's "request" arriving.  Meaningful only at the master;
      slaves ignore it. *)

  val on_delivery : t -> Types.msg Network.delivery -> unit

  val state_name : t -> string
  (** The current local state, using the paper's names (q1, w1, p1, c1,
      a1; q, w, p, c, a; plus termination sub-states like "p1/collect",
      "p/probing").  For traces, tests and the autopsy example. *)
end

type packed = (module S)

val name : packed -> string
