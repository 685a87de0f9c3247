(** Wires a protocol module to the simulated network, runs one
    transaction to quiescence, and harvests the result.

    This is the experiment unit everything else builds on: the checker
    sweeps it over scenario grids, the benches time it, the examples
    narrate its traces. *)

type config = {
  n : int;  (** number of participating sites (master = site 1) *)
  t_unit : Vtime.t;  (** T, the longest end-to-end propagation delay *)
  mode : Network.mode;
  partition : Partition.t;
  delay : Delay.t;
  seed : int64;
  votes : (Site_id.t * bool) list;
      (** per-slave vote overrides; a slave not listed votes yes *)
  crashes : (Site_id.t * Vtime.t) list;
      (** site failures (Section 7 experiments only) *)
  start_at : Vtime.t;  (** when the user's request reaches the master *)
  horizon : Vtime.t;  (** give-up time for the run *)
  trace_enabled : bool;
}

val default_config : ?n:int -> ?t_unit:Vtime.t -> unit -> config
(** n = 3, t_unit = 1000 ticks, optimistic mode, no partition, uniform
    delays, seed 1, all-yes votes, start at 0, horizon 50T, tracing on. *)

type site_result = {
  site : Site_id.t;
  decision : Types.decision option;  (** [None] = blocked (or crashed) *)
  decided_at : Vtime.t option;
  final_state : string;
  reasons : string list;  (** the reasons given to {!Ctx.decide} *)
  crashed : bool;
}

type result = {
  protocol_name : string;
  config : config;
  sites : site_result array;  (** index i = site i+1 *)
  net_stats : Network.stats;
  trace : Trace.t;
  finished_at : Vtime.t;  (** virtual time when the run quiesced *)
  events_run : int;
      (** simulator events executed — the engine-bench denominator *)
}

type scratch
(** Reusable per-domain state (today: one engine whose grown heap array
    survives across runs).  A scratch must never be used by two runs
    concurrently; the result of a run with a scratch is byte-identical
    to one without. *)

val make_scratch : unit -> scratch

val run :
  ?tap:(Types.msg Network.event -> unit) ->
  ?obs:Obs.t ->
  ?scratch:scratch ->
  Site.packed ->
  config ->
  result
(** [tap] observes every message fate (see {!Network.set_tap}); the
    checker's case classifier and the timing benches use it.

    [obs] (default {!Obs.disabled}) records per-site lifecycle spans
    and message-flow edges; the runner seals any still-open spans when
    the engine stops, so the recorder is export-ready on return.  An
    enabled [obs] is the run's log (see {!Obs.log}): its text view is
    on exactly when [config.trace_enabled] is, and [result.trace] is
    [obs] itself.

    [scratch] reuses a {!scratch}'s engine via {!Engine.reset} instead
    of allocating a fresh one — the sweep hot path threads one scratch
    per domain through every run that domain executes.  The returned
    [result.trace] is never shared with the scratch.

    @raise Invalid_argument if [n < 2] or a crash names a site outside
    [1..n]. *)

val site_result : result -> Site_id.t -> site_result

val decisions : result -> Types.decision option list
(** In site order. *)

val pp_result : Format.formatter -> result -> unit
(** One-line-per-site summary. *)
