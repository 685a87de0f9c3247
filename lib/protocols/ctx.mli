(** Per-site execution context handed to protocol actors.

    Wraps the engine and network with the operations the paper's
    protocol descriptions use: send/broadcast, decide, and timers
    measured in multiples of T (the longest end-to-end propagation
    delay).  At equal virtual times, message deliveries run before timer
    expiries (see {!Commit_sim.Engine.rank}), which realises the paper's
    "times out only if the awaited message cannot still arrive within
    the bound" semantics exactly. *)

type t

val make :
  engine:Engine.t ->
  n:int ->
  t_unit:Vtime.t ->
  self:Site_id.t ->
  trans_id:int ->
  send:(Site_id.t -> Types.msg -> unit) ->
  on_decide:(Types.decision -> unit) ->
  on_reason:(string -> unit) ->
  ?obs_site:int ->
  unit ->
  t
(** [send] delivers one protocol message to another site; the caller
    (runner or transaction manager) decides how it travels — directly
    over a {!Network.t}, or multiplexed with a transaction id.  This
    keeps protocol actors independent of the wire representation.

    The context records into the engine's log ({!Engine.trace}).  With
    the log's span view on it opens the root ["txn"] span of this
    site's (site, trans_id) timeline, and {!obs_state}/{!obs_phase}/
    {!obs_instant} record; {!decide} is one record that is both the
    DECIDE line and a decision instant.
    [obs_site] overrides the track's site number (default
    [Site_id.to_int self]) for harnesses that relabel site ids. *)

val self : t -> Site_id.t

val n : t -> int

val t_unit : t -> Vtime.t
(** T, in ticks (the network's [t_max]). *)

val trans_id : t -> int

val now : t -> Vtime.t

val is_master : t -> bool

val slaves : t -> Site_id.t list

val send : t -> Site_id.t -> Types.msg -> unit

val send_master : t -> Types.msg -> unit

val broadcast_slaves : t -> Types.msg -> unit
(** To every slave (used by the master; the paper's "send commit_1-n"). *)

val broadcast_all : t -> Types.msg -> unit
(** To every other site (used by slaves acting for their group). *)

val decide : t -> ?reason:string -> Types.decision -> unit
(** Records this site's decision (idempotent: a second call with the
    same decision is ignored; a contradictory second call raises —
    protocol actors must never flip). *)

val decided : t -> Types.decision option

(** {1 Typed trace logging}

    Protocol actors log through registered binary templates instead of
    printf formats: a log call is a few int stores, and the text is
    rendered only when the trace is read.  Templates are registered at
    module-init time (the factories below, or {!Trace.register_template}
    directly); the per-call payload is packed ints / interned strings. *)

val tracing : t -> bool
(** The log's text view is on.  Guard argument computation on this
    before calling the [log*] functions below (they are also internally
    guarded, so unguarded calls with cheap arguments are fine). *)

val intern : t -> string -> int
(** Intern a string in this context's trace for use as a template
    argument. *)

val log1 : t -> Trace.template -> int -> unit

val log2 : t -> Trace.template -> int -> int -> unit

val log_str : t -> Trace.template -> string -> unit
(** [log1] with an interned-string argument. *)

val log_site : t -> Trace.template -> Site_id.t -> unit

val log_msg_str : t -> Trace.template -> Types.msg -> string -> unit

val log_ignoring : t -> Types.msg -> string -> unit
(** The ["ignoring <msg> in <state>"] line every protocol shares. *)

val log_ud_ignored : t -> Types.msg -> string -> unit
(** ["UD(<msg>) ignored in <state>"]. *)

val msg_str_template :
  prefix:string -> mid:string -> suffix:string -> Trace.template

val str_template : prefix:string -> suffix:string -> Trace.template

val int_template : prefix:string -> suffix:string -> Trace.template

val int2_template : prefix:string -> mid:string -> suffix:string -> Trace.template

val site_template : prefix:string -> suffix:string -> Trace.template

val obs_on : t -> bool
(** The log's span view is on: call sites that must build an argument
    (a formatted name) guard on this, exactly like {!tracing}.  Calls
    with static names need no guard — every span operation is a no-op
    without spans. *)

val obs_state : t -> string -> unit
(** Begin the protocol-state span [name], first closing the previous
    state (and any phase inside it).  States sit directly under the
    root txn span, so the site's timeline reads q1 → w1 → p1 → ... *)

val obs_phase : t -> string -> unit
(** Begin a phase span nested inside the current state (a probe round,
    a collect window), first closing any previous phase. *)

val obs_instant : t -> ?cat:string -> string -> unit
(** A zero-duration mark on this site's timeline. *)

(** A single resettable timer slot, as used by every protocol state
    ("reset timer 5T"). *)
module Timer_slot : sig
  type slot

  val create : unit -> slot

  val set : t -> slot -> mult_t:int -> label:Label.t -> (unit -> unit) -> unit
  (** Cancels any pending timer in the slot, then arms it for
      [mult_t * T] from now. *)

  val set_ticks :
    t -> slot -> ticks:Vtime.t -> label:Label.t -> (unit -> unit) -> unit

  val cancel : slot -> unit

  val armed : slot -> bool
end
