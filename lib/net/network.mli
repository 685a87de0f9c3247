(** The message-passing substrate with simple partitioning.

    Implements the paper's two failure models:

    - {e optimistic} (assumption 1 of Section 5.1): a message that cannot
      cross an active partition boundary is {e returned to its sender} as
      an undeliverable message, UD(msg).  The round trip (out to the
      boundary, back to the sender) takes at most [2T].
    - {e pessimistic}: undeliverable messages are silently lost.  (The
      paper proves no protocol is resilient in this model; we keep it for
      the contrast benchmark.)

    Partition membership is evaluated at the would-be arrival instant, so
    a message sent before a transient partition heals but arriving after
    is delivered — exactly the message-race structure of Section 6's case
    analysis.  That arrival is the only place the network reads its
    partition, and nothing outside reads it back: the partition has no
    accessor ({!Query_log} rests on this).

    Site failures (used only by the Section 7 counterexample experiments;
    the termination protocol assumes they never coincide with a
    partition) make a site drop every delivery without any bounce. *)

type 'a envelope = {
  src : Site_id.t;
  dst : Site_id.t;
  payload : 'a;
  sent_at : Vtime.t;
}

type 'a delivery =
  | Msg of 'a envelope  (** normal arrival at [dst] *)
  | Undeliverable of 'a envelope
      (** the bounce: delivered back to [src]; the envelope is the
          original message (paper notation UD(msg)) *)

type mode = Optimistic | Pessimistic

(** Observable fate of a message, for passive taps.  [at] is the
    virtual time of the event itself (the send, the arrival, the bounce
    delivery, the loss). *)
type 'a event =
  | Sent of { env : 'a envelope; at : Vtime.t }
  | Delivered of { env : 'a envelope; at : Vtime.t }
  | Bounced of { env : 'a envelope; at : Vtime.t }
      (** returned to sender as UD(msg) *)
  | Lost of { env : 'a envelope; at : Vtime.t }
      (** pessimistic boundary loss or dead site *)

type stats = {
  sent : int;
  delivered : int;
  bounced : int;  (** returned to sender (optimistic mode) *)
  lost : int;  (** dropped (pessimistic mode or dead destination) *)
}

(** A reusable record of the partition queries one network made: for
    each message that reached boundary B, its arrival instant, sender
    and receiver, with {!Partition.separated}'s answer.  Since arrivals
    are the partition's only reader, a run is a deterministic function
    of its configuration without the partition and of these answers;
    the checker's sweep relies on this to give configurations whose
    partitions answer every query alike one simulation (see [Sweep]).
    Each query and its answer take one int; the buffer is kept across
    runs and grows only when a run makes more queries than any before
    it. *)
module Query_log : sig
  type t

  val create : unit -> t

  val length : t -> int

  val query : t -> int -> int
  (** [query log i] is the [i]th query, in arrival order, packed into
      one int: equal ints are equal (instant, sender, receiver)
      triples, provided {!exact} holds for the run. *)

  val answer : t -> int -> bool
  (** The answer the [i]th query got: were sender and receiver
      separated? *)

  val from : Vtime.t -> int
  (** [from at] is the least packed query at [at] or later: packed
      queries order by instant first, so [query log i >= from at]
      exactly when the [i]th query came at [at] or later. *)

  val separated : Partition.t -> int -> bool
  (** [separated p q] is {!Partition.separated} [p] asked the packed
      query [q]. *)

  val exact : n:int -> horizon:Vtime.t -> bool
  (** Whether every query of a run over [n] sites that stops by
      [horizon] packs without loss (fewer than 1,024 sites, instants
      below 2{^41}). *)
end

type 'a t

val register_payload_renderer : (Buffer.t -> int -> unit) -> Trace.template
(** Register a renderer that turns a packed payload code (see
    [payload_codec] below) back into the exact text [pp_payload] would
    have produced; it becomes a trace template.  Global and append-only
    — call only from module initialisation, never per network or per
    run. *)

val create :
  engine:Engine.t ->
  n:int ->
  t_max:Vtime.t ->
  ?mode:mode ->
  ?partition:Partition.t ->
  ?delay:Delay.t ->
  ?seed:int64 ->
  ?pp_payload:(Format.formatter -> 'a -> unit) ->
  ?payload_codec:Trace.template * ('a -> int) ->
  ?obs_tid:('a -> int) ->
  ?prof:Prof.t ->
  ?queries:Query_log.t ->
  unit ->
  'a t
(** Defaults: [mode = Optimistic], [partition = Partition.none],
    [delay = Delay.uniform ~t_max], [seed = 1L].  The network records
    into its engine's log ({!Engine.trace}).

    [prof], when given, brackets every network entry point ([send] and
    the scheduled hop/bounce callbacks) with the [Network] profiler
    bucket; protocol work reached through the delivery handler nests
    its own bucket inside, so only network self-time is charged.

    [payload_codec] is [(renderer, encode)] where [renderer] came from
    {!register_payload_renderer} and [encode] packs a payload into one
    int that the renderer can print.  Every line the network writes is
    a compact binary record (a few int stores); without a codec the
    payload is printed with [pp_payload] when the record is written
    and stored as an interned string.

    With the log's span view on, every send opens a causality flow edge
    (named by the payload) that closes at the destination on delivery
    — or back at the {e sender} on an optimistic bounce, making the
    returned-to-sender UD(msg) round trip visible; losses and crashes
    become instants.  Each of these moments is one record that also
    carries its trace line.  [obs_tid] maps a payload to the
    transaction-id track the edge endpoints land on (default: track
    0).

    [queries], when given, is cleared and then receives every partition
    query this network makes, with its answer.  Without it, an arrival
    pays one field test. *)

val set_handler : 'a t -> (Site_id.t -> 'a delivery -> unit) -> unit
(** Installs the delivery callback.  Must be called before any message
    arrives; sending without a handler raises at delivery time. *)

val set_tap : 'a t -> ('a event -> unit) -> unit
(** Installs a passive observer of every message fate, called in event
    order.  Used by the checker's Section 6 case classifier and by the
    timing benches; protocols must not use it. *)

val send : 'a t -> src:Site_id.t -> dst:Site_id.t -> 'a -> unit
(** Queues one message.  Self-sends are rejected
    (@raise Invalid_argument) — sites act on their own state directly. *)

val broadcast : 'a t -> src:Site_id.t -> 'a -> unit
(** Sends to every other site, in site order. *)

val crash : 'a t -> Site_id.t -> unit
(** Marks a site dead: every subsequent (and in-flight) delivery to it is
    lost, with no bounce — a site failure looks like message loss, which
    is the paper's Section 7 point. *)

val recover : 'a t -> Site_id.t -> unit
(** Clears the dead flag set by {!crash}.  Messages sent while the site
    was down stay lost; deliveries scheduled to arrive after the
    recovery instant arrive normally (liveness is checked at delivery
    time, not send time). *)

val alive : 'a t -> Site_id.t -> bool

val stats : 'a t -> stats
