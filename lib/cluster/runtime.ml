module Stats = Commit_checker.Stats
module Export = Commit_checker.Export

type config = {
  protocol : Site.packed;
  n : int;
  t_unit : Vtime.t;
  mode : Network.mode;
  timeline : Partition.t;
  delay : Delay.t;
  seed : int64;
  duration : Vtime.t;
  drain : Vtime.t;
  load : int;
  window : int;
  queue_limit : int option;
  policy : Scheduler.policy;
  pause_during_cut : bool;
  crashes : (Site_id.t * Vtime.t) list;
  recoveries : (Site_id.t * Vtime.t) list;
      (* each site must also appear in [crashes] at an earlier instant;
         at the recovery instant the site replays its WAL and rejoins *)
  balance : int;
  amount : int;
  bucket : Vtime.t;
  trace_enabled : bool;
  snapshot_every : Vtime.t option;
      (* emit a windowed telemetry snapshot every this many ticks *)
  profile : bool;  (* attribute host wall-time to subsystem buckets *)
}

let default_config ?(protocol = (module Termination.Transient : Site.S))
    ?(n = 3) () =
  let t_unit = Vtime.of_int 1000 in
  let t mult = Vtime.of_int (mult * Vtime.to_int t_unit) in
  {
    protocol;
    n;
    t_unit;
    mode = Network.Optimistic;
    timeline = Partition.none;
    delay = Delay.uniform ~t_max:t_unit;
    seed = 1L;
    duration = t 200;
    drain = t 30;
    load = 50;
    window = 8;
    queue_limit = Some 64;
    policy = Scheduler.Partition_aware;
    pause_during_cut = false;
    crashes = [];
    recoveries = [];
    balance = 1000;
    amount = 25;
    bucket = t 10;
    trace_enabled = false;
    snapshot_every = None;
    profile = false;
  }

type report = {
  config : config;
  horizon : Vtime.t;
  offered : int;
  admitted : int;
  rejected : int;
  starved : int;
  committed : int;
  aborted : int;
  torn : int;
  blocked : int;
  settled : int;
  termination_invocations : int;
  probes : int;
  latency : Stats.t option;
  queue_wait : Stats.t option;
  throughput_per_100t : float;
  disk_total : int;
  auditor : Auditor.t;
  metrics : Metrics.t;
  net_stats : Network.stats;
  trace : Trace.t;
  trace_dropped : int;
      (* entries the bounded trace ring evicted; surfaced as a stderr
         warning by the CLI and in to_json's "runtime" section *)
  events_run : int;
      (* engine events executed (deterministic); in to_json's "runtime"
         section so snapshot streams can be cross-checked *)
  snapshots : Metrics.snapshot list;
      (* windowed telemetry, oldest first; empty unless
         [config.snapshot_every] *)
  profile : Prof.report option;
      (* wall-clock subsystem attribution; inherently nondeterministic,
         so never serialized in [to_json] *)
}

(* Cluster trace templates, registered at module init (the [Run] functor
   below is applied once per run); the core logs crashes, recoveries and
   adoptions in the same "cluster" topic. *)

let tmpl_torn =
  Trace.register_template (fun b _ tid _ _ _ _ ->
      Buffer.add_char b 't';
      Buffer.add_string b (string_of_int tid);
      Buffer.add_string b " TORN")

(* Per-domain reusable state for cluster sweeps: one engine whose heap
   array survives (reset, not reallocated) across runtimes.  The log is
   not part of the scratch — each run gets a fresh one (or the caller's
   recorder) so [report.trace] never aliases a later run's data. *)
type scratch = { scratch_engine : Engine.t }

let make_scratch () =
  { scratch_engine = Engine.create ~trace:(Trace.create ~enabled:false ()) () }

(* Decision reasons that only the termination machinery (or a timeout /
   UD transition standing in for it) can produce: every termination tag
   except the failure-free flow's (fact1-case1 / fact2-case1, the votes
   and plain command receipt). *)
let termination_reason =
  let failure_free =
    [ "fact1-case1"; "fact2-case1"; "voted-no"; "no-vote"; "abort-cmd" ]
  in
  let tagged = Hashtbl.create 32 in
  List.iter
    (fun r ->
      if not (List.mem r failure_free) then Hashtbl.replace tagged r ())
    (Termination.fact1_reasons @ Termination.fact2_reasons
    @ Termination.slave_abort_reasons @ Termination.master_abort_reasons
    @ [
        "transient-5t-commit";
        (* Paxos Commit: a decision chosen at a ballot > 0 means a
           replacement leader drove the instances home — the consensus
           counterpart of a termination-protocol invocation. *)
        "px-chosen-recovery";
      ]);
  (* Built once and only read after: safe to share across domains. *)
  fun r -> Hashtbl.mem tagged r

module Run (P : Site.S) = struct
  module Core = Txn_core.Make (P)

  (* The runtime's per-transaction state, carried in the core's record:
     whether its decision went through the termination machinery. *)
  type txn = bool Core.txn

  type state = {
    config : config;
    engine : Engine.t;
    core : bool Core.t;
    log : Trace.t;  (* cached Engine.trace *)
    on : bool;  (* cached Trace.on *)
    alive : Site_id.t -> bool;
    scheduler : Tm.txn_spec Scheduler.t;
    metrics : Metrics.t;
    auditor : Auditor.t;
  }

  let now state = Engine.now state.engine

  let rec settle state (txn : txn) =
    let at = now state in
    let m = state.metrics in
    (match Core.outcome state.core txn with
    | Txn_core.Committed ->
        Metrics.incr m "txn.committed";
        Metrics.mark m ~at "commits";
        Metrics.observe m "latency.commit" (Vtime.sub at txn.started_at)
    | Txn_core.Aborted ->
        Metrics.incr m "txn.aborted";
        Metrics.mark m ~at "aborts"
    | Txn_core.Torn | Txn_core.Open (* never settles *) ->
        Metrics.incr m "txn.torn";
        if state.on then Core.log1 state.core tmpl_torn txn.spec.tid);
    Metrics.incr m "txn.settled";
    Metrics.observe m "latency.settle" (Vtime.sub at txn.started_at);
    if txn.client then begin
      Metrics.incr m "txn.termination";
      Metrics.mark m ~at "terminations"
    end;
    Scheduler.complete state.scheduler;
    pump state

  and start state spec master =
    let at = now state in
    let tid = spec.Tm.tid in
    if state.on then begin
      if Obs.open_depth state.log ~site:0 ~tid > 0 then
        Obs.span_end state.log ~at ~site:0 ~tid;  (* queued *)
      Obs.span_begin state.log ~at ~site:0 ~tid ~cat:"txn" "txn"
    end;
    Metrics.mark state.metrics ~at "admissions";
    Metrics.observe state.metrics "wait.queue" (Vtime.sub at spec.Tm.start_at);
    Core.prof_enter state.core Prof.Auditor;
    Auditor.begin_txn state.auditor ~tid
      ~contributions:(Workload.transfer_contributions spec);
    Core.prof_leave state.core;
    Core.start state.core (Core.add state.core spec false) ~master

  and pump state =
    let rec drain () =
      match
        Scheduler.next state.scheduler ~alive:state.alive
          ~timeline:state.config.timeline ~now:(now state) ()
      with
      | Some (spec, master) ->
          start state spec master;
          drain ()
      | None -> ()
    in
    drain ()

  let submit state spec =
    let at = now state in
    Metrics.incr state.metrics "txn.offered";
    Metrics.mark state.metrics ~at "arrivals";
    match
      Scheduler.submit state.scheduler ~alive:state.alive
        ~timeline:state.config.timeline ~now:at spec
    with
    | `Admit master -> start state spec master
    | `Enqueued ->
        if state.on then
          Obs.span_begin state.log ~at ~site:0 ~tid:spec.Tm.tid
            ~cat:"lifecycle" "queued"
    | `Rejected ->
        if state.on then
          Obs.instant state.log ~at ~site:0 ~tid:spec.Tm.tid ~cat:"lifecycle"
            "rejected";
        Metrics.incr state.metrics "txn.rejected";
        Metrics.mark state.metrics ~at "rejections"

  (* The runtime's side of the core's decision path and fault handling:
     the auditor hears every decision and every crash and restart, and
     metrics count reasons, settlements, crashes and replays. *)
  let hooks state =
    let metrics = state.metrics and auditor = state.auditor in
    {
      Core.decided =
        (fun txn site decision ->
          Core.prof_enter state.core Prof.Auditor;
          Auditor.record auditor ~tid:txn.spec.tid ~site decision;
          Core.prof_leave state.core);
      settled = settle state;
      reason =
        (fun txn r ->
          Metrics.incr metrics ("reason." ^ r);
          if termination_reason r then txn.client <- true);
      crashed =
        (fun site ->
          Metrics.incr metrics "site.crashes";
          Auditor.mark_dead auditor ~site);
      restarted =
        (fun site ->
          Auditor.mark_recovered auditor ~site;
          Metrics.incr metrics "site.recoveries");
      recovered =
        (fun _ rep ->
          Metrics.add metrics "recovery.redone" (List.length rep.redone);
          Metrics.add metrics "recovery.in_doubt" (List.length rep.in_doubt);
          Metrics.add metrics "recovery.aborted" (List.length rep.aborted);
          (* The scheduler sees the site again on the next pump; do one
             now so admission resumes promptly. *)
          pump state);
    }

  let run ~obs ~scratch config =
    if config.load < 1 then invalid_arg "Runtime.run: load must be >= 1";
    if config.window < 1 then invalid_arg "Runtime.run: window must be >= 1";
    (match config.queue_limit with
    | Some limit when limit < 0 ->
        invalid_arg "Runtime.run: queue_limit must be >= 0"
    | Some _ | None -> ());
    if config.amount <= 0 || config.amount >= config.balance then
      invalid_arg "Runtime.run: need 0 < amount < balance";
    if config.n < 2 then invalid_arg "Runtime.run: need at least two sites";
    (match config.snapshot_every with
    | Some every when Vtime.to_int every <= 0 ->
        invalid_arg "Runtime.run: snapshot_every must be positive"
    | Some _ | None -> ());
    let log = Obs.log obs ~text:config.trace_enabled in
    let engine =
      match scratch with
      | Some s ->
          Engine.reset ~trace:log s.scratch_engine;
          s.scratch_engine
      | None -> Engine.create ~trace:log ()
    in
    let prof = if config.profile then Some (Prof.create ()) else None in
    let core =
      Core.create ~engine ?prof ~topic:"cluster" ~n:config.n
        ~t_unit:config.t_unit ~mode:config.mode ~partition:config.timeline
        ~delay:config.delay ~seed:config.seed ~initial:[] ()
    in
    let metrics = Metrics.create ~bucket:config.bucket ~t_unit:config.t_unit () in
    (* The snapshot cursor must exist before anything records. *)
    let cursor = Option.map (fun _ -> Metrics.create_cursor metrics) config.snapshot_every in
    let horizon = Vtime.add config.duration config.drain in
    let state =
      {
        config;
        engine;
        core;
        log;
        on = Trace.on log;
        alive = Core.alive core;
        scheduler =
          Scheduler.create ~policy:config.policy
            ?queue_limit:config.queue_limit
            ~pause_during_cut:config.pause_during_cut ~window:config.window
            ~n:config.n ();
        metrics;
        auditor = Auditor.create ~n:config.n ();
      }
    in
    Core.set_hooks core (hooks state);
    (* Streaming telemetry: the span->histogram bridge drains closed
       Obs spans into "span.<cat>.<name>" histograms (it only exists
       when the recorder does, so trace-off runs pay nothing); gauges
       are sampled at every cut and once at the horizon. *)
    let bridge = if Obs.enabled log then Some (Span_bridge.create log) else None in
    let flush_bridge () =
      match bridge with Some b -> Span_bridge.flush b metrics | None -> ()
    in
    let sample_gauges ~at =
      Metrics.set_gauge metrics "gauge.in_flight"
        (Scheduler.in_flight state.scheduler);
      Metrics.set_gauge metrics "gauge.queued" (Scheduler.queued state.scheduler);
      (* Same bound as the q-watchdog: admitted 12T ago and still not
         settled means the commit protocol is blocked or terminating. *)
      let stall = Vtime.of_int (12 * Vtime.to_int config.t_unit) in
      let blocked =
        Core.fold core
          (fun (txn : txn) n ->
            if (not txn.settled) && Vtime.( < ) (Vtime.add txn.started_at stall) at
            then n + 1
            else n)
          0
      in
      Metrics.set_gauge metrics "gauge.blocked" blocked;
      Metrics.set_gauge metrics "gauge.live_sites"
        (List.length (List.filter state.alive (Site_id.all ~n:config.n)));
      (* Down now, but scheduled to come back: the sites a soak is
         actively waiting on. *)
      Metrics.set_gauge metrics "gauge.recovering_sites"
        (List.fold_left
           (fun n (site, _) -> if state.alive site then n else n + 1)
           0 config.recoveries);
      Metrics.set_gauge metrics "gauge.partition_components"
        (Partition.components_at config.timeline ~at)
    in
    let snapshots = ref [] in
    let cut ~at ~final =
      match cursor with
      | None -> ()
      | Some c ->
          sample_gauges ~at;
          flush_bridge ();
          snapshots := Metrics.snapshot metrics c ~at ~final :: !snapshots
    in
    (* Periodic cuts ride the engine at Background rank, so same-instant
       deliveries and timers land inside the window they belong to; the
       horizon cut is taken separately, after shutdown accounting. *)
    (match config.snapshot_every with
    | None -> ()
    | Some every ->
        let rec tick at =
          ignore
            (Engine.schedule_at engine ~rank:Engine.Background ~at
               ~label:(Label.Static "metrics-cut")
               (fun () ->
                 cut ~at ~final:false;
                 let next = Vtime.add at every in
                 if Vtime.( < ) next horizon then tick next))
        in
        if Vtime.( < ) every horizon then tick every);
    Core.schedule_faults core ~crashes:config.crashes
      ~recoveries:config.recoveries;
    (* Count termination-protocol probes directly off the wire. *)
    Network.set_tap (Core.net core) (fun event ->
        match event with
        | Network.Sent { env; _ } -> (
            match env.payload.body with
            | Types.Probe _ -> Metrics.incr metrics "net.probes"
            | _ -> ())
        | Network.Delivered _ | Network.Bounced _ | Network.Lost _ -> ());
    (* The open-loop arrival process: [load] transfers per 100T, evenly
       spaced, sites drawn from a seed-derived stream.  The arrivals are
       one engine stream: they keep the order they would have if all
       were queued now, while the heap holds only the next one. *)
    let wl_rng = Rng.create (Int64.logxor config.seed 0x9E3779B97F4A7C15L) in
    let spacing_num = 100 * Vtime.to_int config.t_unit in
    let arrival_at i = Vtime.of_int (i * spacing_num / config.load) in
    let offered =
      let rec count i =
        if Vtime.( < ) (arrival_at i) config.duration then count (i + 1) else i
      in
      count 0
    in
    Engine.schedule_stream engine ~count:offered ~at:arrival_at
      ~label:(Label.Static "arrival") (fun i ->
        let tid = i + 1 in
        let debtor = Site_id.of_int (Rng.int_in wl_rng ~lo:1 ~hi:config.n) in
        let creditor =
          let rec pick () =
            let s = Site_id.of_int (Rng.int_in wl_rng ~lo:1 ~hi:config.n) in
            if Site_id.equal s debtor then pick () else s
          in
          pick ()
        in
        let spec =
          Workload.transfer ~tid ~start_at:(now state) ~debtor ~creditor
            ~balance:config.balance ~amount:config.amount
        in
        submit state spec);
    (* A once-per-T pump so queued arrivals drain on window slots and on
       heals even when no completion fires. *)
    let rec pump_loop () =
      pump state;
      let next = Vtime.add (now state) config.t_unit in
      if Vtime.( <= ) next horizon then
        ignore
          (Engine.schedule_at engine ~at:next ~label:(Label.Static "pump") (fun () ->
               pump_loop ()))
    in
    ignore
      (Engine.schedule_at engine ~at:config.t_unit ~label:(Label.Static "pump") (fun () ->
           pump_loop ()));
    Engine.run ~until:horizon engine;
    Obs.close_open_spans log ~at:(Engine.now engine);
    (* Shutdown accounting. *)
    let blocked =
      Core.fold core (fun (txn : txn) n -> if txn.settled then n else n + 1) 0
    in
    Metrics.add metrics "txn.blocked" blocked;
    let starved = Scheduler.queued state.scheduler in
    Metrics.add metrics "txn.starved" starved;
    (* Final telemetry: drain the bridge and sample end-of-run gauges
       whether or not snapshots are on (so --json always carries them),
       then take the horizon cut after the shutdown accounting above so
       the stream's sum equals the final metrics exactly. *)
    sample_gauges ~at:horizon;
    flush_bridge ();
    (match cursor with
    | None -> ()
    | Some c ->
        snapshots := Metrics.snapshot metrics c ~at:horizon ~final:true :: !snapshots);
    (match prof with
    | Some p -> Prof.note_entries p Prof.Engine (Engine.events_run engine)
    | None -> ());
    let committed = Metrics.counter metrics "txn.committed" in
    {
      config;
      horizon;
      offered;
      admitted = Scheduler.admitted state.scheduler;
      rejected = Scheduler.rejected state.scheduler;
      starved;
      committed;
      aborted = Metrics.counter metrics "txn.aborted";
      torn = Metrics.counter metrics "txn.torn";
      blocked;
      settled = Metrics.counter metrics "txn.settled";
      termination_invocations = Metrics.counter metrics "txn.termination";
      probes = Metrics.counter metrics "net.probes";
      latency = Metrics.histogram metrics "latency.commit";
      queue_wait = Metrics.histogram metrics "wait.queue";
      throughput_per_100t =
        (if Vtime.to_int config.duration = 0 then 0.
         else
           float_of_int committed
           *. float_of_int spacing_num
           /. float_of_int (Vtime.to_int config.duration));
      disk_total = Txn_core.money ~prefix:"acct:" (Core.stores core);
      auditor = state.auditor;
      metrics;
      net_stats = Network.stats (Core.net core);
      trace = log;
      trace_dropped = Trace.dropped log;
      events_run = Engine.events_run engine;
      snapshots = List.rev !snapshots;
      profile = Option.map Prof.report prof;
    }
end

let run ?(obs = Obs.disabled) ?scratch config =
  let (module P : Site.S) = config.protocol in
  let module R = Run (P) in
  R.run ~obs ~scratch config

let atomic report =
  Auditor.agreement_violations report.auditor = 0
  && Auditor.conservation_breaches report.auditor = 0
  && report.disk_total = Auditor.applied_total report.auditor

let to_json report =
  let (module P : Site.S) = report.config.protocol in
  let stats_json = function
    | Some s -> Export.of_stats s
    | None -> Export.Null
  in
  Export.Obj
    [
      ( "config",
        Export.Obj
          [
            ("protocol", Export.String P.name);
            ("n", Export.Int report.config.n);
            ("t_unit", Export.Int (Vtime.to_int report.config.t_unit));
            ("seed", Export.String (Int64.to_string report.config.seed));
            ("duration", Export.Int (Vtime.to_int report.config.duration));
            ("drain", Export.Int (Vtime.to_int report.config.drain));
            ("load_per_100t", Export.Int report.config.load);
            ("window", Export.Int report.config.window);
            ( "queue_limit",
              match report.config.queue_limit with
              | Some l -> Export.Int l
              | None -> Export.Null );
            ( "policy",
              Export.String (Scheduler.policy_name report.config.policy) );
            ("pause_during_cut", Export.Bool report.config.pause_during_cut);
            ( "timeline",
              Export.String
                (Format.asprintf "%a" Partition.pp report.config.timeline) );
            ( "crashes",
              Export.List
                (List.map
                   (fun (s, at) ->
                     Export.Obj
                       [
                         ("site", Export.Int (Site_id.to_int s));
                         ("at", Export.Int (Vtime.to_int at));
                       ])
                   report.config.crashes) );
            ( "recoveries",
              Export.List
                (List.map
                   (fun (s, at) ->
                     Export.Obj
                       [
                         ("site", Export.Int (Site_id.to_int s));
                         ("at", Export.Int (Vtime.to_int at));
                       ])
                   report.config.recoveries) );
          ] );
      ( "totals",
        Export.Obj
          [
            ("offered", Export.Int report.offered);
            ("admitted", Export.Int report.admitted);
            ("rejected", Export.Int report.rejected);
            ("starved", Export.Int report.starved);
            ("settled", Export.Int report.settled);
            ("committed", Export.Int report.committed);
            ("aborted", Export.Int report.aborted);
            ("torn", Export.Int report.torn);
            ("blocked", Export.Int report.blocked);
            ( "termination_invocations",
              Export.Int report.termination_invocations );
            ("probes", Export.Int report.probes);
          ] );
      ("throughput_per_100t", Export.Float report.throughput_per_100t);
      ("latency_commit", stats_json report.latency);
      ("queue_wait", stats_json report.queue_wait);
      ( "money",
        Export.Obj
          [
            ("disk_total", Export.Int report.disk_total);
            ( "applied_total",
              Export.Int (Auditor.applied_total report.auditor) );
            ( "atomic_expected_total",
              Export.Int (Auditor.atomic_expected_total report.auditor) );
          ] );
      ("atomic", Export.Bool (atomic report));
      ("auditor", Auditor.to_json report.auditor);
      ( "net",
        Export.Obj
          [
            ("sent", Export.Int report.net_stats.sent);
            ("delivered", Export.Int report.net_stats.delivered);
            ("bounced", Export.Int report.net_stats.bounced);
            ("lost", Export.Int report.net_stats.lost);
          ] );
      (* Deterministic runtime bookkeeping, so snapshot streams can be
         cross-checked against the run.  The wall-clock profile is
         deliberately absent: it would break byte-identity. *)
      ( "runtime",
        Export.Obj
          [
            ("events_run", Export.Int report.events_run);
            ("trace_dropped", Export.Int report.trace_dropped);
          ] );
      ("metrics", Metrics.to_json report.metrics);
    ]

let pp_report fmt report =
  let (module P : Site.S) = report.config.protocol in
  Format.fprintf fmt
    "cluster %s n=%d: offered=%d admitted=%d rejected=%d starved=%d@."
    P.name report.config.n report.offered report.admitted report.rejected
    report.starved;
  Format.fprintf fmt
    "  committed=%d aborted=%d torn=%d blocked=%d terminations=%d probes=%d@."
    report.committed report.aborted report.torn report.blocked
    report.termination_invocations report.probes;
  Format.fprintf fmt "  throughput=%.1f committed/100T@."
    report.throughput_per_100t;
  (match report.latency with
  | Some s ->
      Format.fprintf fmt "  commit latency: %a@."
        (Stats.pp_in_t ~unit_t:report.config.t_unit)
        s
  | None -> ());
  Format.fprintf fmt "  money: disk=%d applied=%d atomic-expected=%d %s@."
    report.disk_total
    (Auditor.applied_total report.auditor)
    (Auditor.atomic_expected_total report.auditor)
    (if atomic report then "(conserved)" else "(VIOLATED)")

let pp_timeline fmt report =
  let m = report.metrics in
  let bucket = Vtime.to_int (Metrics.bucket_ticks m) in
  let unit_t = Vtime.to_int report.config.t_unit in
  let last_bucket = (Vtime.to_int report.horizon - 1) / bucket in
  (* One dense per-bucket column per series, read once.  Marks at the
     horizon instant may fall one bucket past the table. *)
  let column series =
    let counts = Array.make (last_bucket + 1) 0 in
    List.iter
      (fun (b, c) -> if b <= last_bucket then counts.(b) <- c)
      (Metrics.series m series);
    counts
  in
  let arrivals = column "arrivals" and commits = column "commits" in
  let aborts = column "aborts" and terminations = column "terminations" in
  Format.fprintf fmt "  %-12s %-9s %-9s %-9s %-13s@." "interval" "arrivals"
    "commits" "aborts" "terminations";
  for b = 0 to last_bucket do
    let lo = b * bucket and hi = (b + 1) * bucket in
    let mid = Vtime.of_int (lo + (bucket / 2)) in
    Format.fprintf fmt "  %4dT-%4dT  %-9d %-9d %-9d %-13d%s@." (lo / unit_t)
      (hi / unit_t) arrivals.(b) commits.(b) aborts.(b) terminations.(b)
      (if Partition.active_at report.config.timeline mid then
         "  | partition up"
       else "")
  done
