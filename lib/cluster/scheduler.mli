(** The coordinator scheduler: admission control, a bounded in-flight
    window, and per-transaction master placement.

    The runtime offers every arriving transaction to the scheduler.  At
    most [window] transactions run concurrently — the knob that turns a
    blocked commit protocol into a measurable outage: each transaction a
    partition strands occupies a window slot until it decides, and 2PC
    never decides, so the window clogs and the queue overflows.  Beyond
    the window, up to [queue_limit] transactions wait in FIFO order;
    anything past that is rejected (load shedding).

    Master placement is per-transaction, under one of three policies:

    - {!Fixed_master}: site 1 coordinates everything (the paper's
      convention, and the baseline);
    - {!Round_robin}: coordinators rotate over all sites, spreading the
      master role — the multi-shot generalisation;
    - {!Partition_aware}: rotate, but while a partition is active pick
      only sites in the master-side cell, so a new transaction's
      coordinator is never marooned in G2 (its slaves across the
      boundary still force the termination protocol, but the
      coordinator's own group is the big one).

    Optionally ({!create}[ ~pause_during_cut:true]) the scheduler
    defers {e all} admissions while a partition is active — arrivals
    queue up and drain after the heal, trading partition-window
    goodput for zero termination-protocol work. *)

type policy = Fixed_master | Round_robin | Partition_aware

val policy_name : policy -> string

type 'a t

val create :
  ?policy:policy ->
  ?queue_limit:int ->
  ?pause_during_cut:bool ->
  window:int ->
  n:int ->
  unit ->
  'a t
(** Defaults: [policy = Partition_aware], [queue_limit = max_int],
    [pause_during_cut = false].
    @raise Invalid_argument if [window < 1] or [n < 2]. *)

val submit :
  'a t ->
  ?alive:(Site_id.t -> bool) ->
  timeline:Partition.t ->
  now:Vtime.t ->
  'a ->
  [ `Admit of Site_id.t | `Enqueued | `Rejected ]
(** Offer one transaction.  [`Admit master] claims a window slot and
    names the coordinator; [`Enqueued] parks it; [`Rejected] sheds it
    (queue full).  [alive] (default: everyone) filters the rotation
    candidates so crash-stopped sites are never picked as coordinators
    (Fixed_master ignores it — a fixed dead master is the scenario the
    policy is meant to expose). *)

val complete : 'a t -> unit
(** Release one window slot (a transaction settled).
    @raise Invalid_argument if nothing is in flight. *)

val next :
  'a t ->
  ?alive:(Site_id.t -> bool) ->
  timeline:Partition.t ->
  now:Vtime.t ->
  unit ->
  ('a * Site_id.t) option
(** Pop the longest-queued transaction if a window slot is free (and
    admissions are not paused), claiming the slot. *)

val in_flight : 'a t -> int

val queued : 'a t -> int

val admitted : 'a t -> int
(** Total admissions (window slots ever claimed). *)

val rejected : 'a t -> int

val window : 'a t -> int
