(** The discrete-event simulation engine.

    Events are executed in order of [(time, rank, sequence)].  The rank
    makes the paper's timing arguments exact: a timeout of length [2T]
    fires only if no message arriving at or before [now + 2T] preempts
    it, because at equal timestamps {!rank} [Delivery] events run before
    [Timer] events.  The sequence number makes runs deterministic.

    The hot path is allocation-lean (see DESIGN.md "Hot-path allocation
    policy"): one event block per schedule, a packed immediate-int
    [(rank, seq)] tie-break compared inline in a monomorphic heap, and
    {!Label.t} labels that cost nothing unless rendered. *)

type t

type handle
(** A scheduled event.  Handles support cancellation, which is how
    protocol timers are reset (paper: "reset timer 5T"). *)

(** Execution order among events sharing a timestamp. *)
type rank =
  | Delivery  (** message arrivals (network layer) *)
  | Timer  (** protocol timeouts *)
  | Background  (** everything else (workload injection, probes) *)

val create : ?trace:Trace.t -> unit -> t
(** A fresh engine at time {!Vtime.zero}.  [trace] defaults to a fresh
    enabled trace. *)

val reset : ?trace:Trace.t -> t -> unit
(** Rewinds the engine to the state of [create] — clock at zero, empty
    queue, zeroed counters — while {e keeping} the grown heap array, so
    reusing one engine across many runs amortises heap growth.  Pending
    events (and the closures they capture) are dropped and overwritten.
    [trace] replaces the engine's trace (omit it to keep the current
    one).  A run on a reset engine is observationally identical to a
    run on a fresh engine: this is the soundness basis for per-domain
    scratch reuse in sweeps. *)

val now : t -> Vtime.t

val trace : t -> Trace.t

val pending : t -> int
(** Number of queued events (cancelled events are counted until they are
    drained; the count is zero exactly when the queue is empty). *)

val events_run : t -> int
(** Number of events executed so far. *)

val schedule :
  t -> ?rank:rank -> delay:Vtime.t -> label:Label.t -> (unit -> unit) -> handle
(** [schedule t ~delay ~label f] runs [f] at time [now t + delay].
    [rank] defaults to [Background].  Pass [Label.Static "literal"] —
    a constant constructor application is static data, so the label is
    free; use [Label.Dynamic] only for genuinely computed labels. *)

val schedule_at :
  t -> ?rank:rank -> at:Vtime.t -> label:Label.t -> (unit -> unit) -> handle
(** Absolute-time variant.  @raise Invalid_argument if [at] is in the
    past. *)

val schedule_stream :
  t ->
  count:int ->
  at:(int -> Vtime.t) ->
  label:Label.t ->
  (int -> unit) ->
  unit
(** [schedule_stream t ~count ~at ~label f] schedules [count] events,
    the [i]-th running [f i] at [at i] with rank [Background], and they
    execute in exactly the order they would if each were scheduled with
    {!schedule_at} right now, one after another: the call reserves
    [count] consecutive sequence numbers.  Only the next pending element is queued at a
    time, so a long stream costs the heap one slot instead of [count].
    [at] must be nondecreasing in [i]; it is called once per element,
    when the previous one runs.  Stream elements cannot be cancelled.
    @raise Invalid_argument if [count] is negative or [at 0] is in the
    past, and (when the offending element is due to be queued) if [at]
    decreases. *)

val cancel : handle -> unit
(** Cancelling an already-run or already-cancelled event is a no-op. *)

val cancelled : handle -> bool

val run : ?until:Vtime.t -> ?max_events:int -> t -> unit
(** Runs events until the queue empties, virtual time would exceed
    [until], or [max_events] have executed (a runaway guard; default
    ten million).  Events scheduled beyond [until] remain queued. *)
