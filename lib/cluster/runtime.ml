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

(* Protocol messages multiplexed by transaction id, as in Tm. *)
type wire = { wtid : int; body : Types.msg }

let pp_wire fmt w = Format.fprintf fmt "t%d:%a" w.wtid Types.pp_msg w.body

(* Binary wire codec (same layout as Tm's): wtid in bits 40+ above the
   packed message. *)
let wire_code w = Types.msg_code w.body lor (w.wtid lsl 40)

let wire_renderer =
  Network.register_payload_renderer (fun b code ->
      Buffer.add_char b 't';
      Buffer.add_string b (string_of_int (code lsr 40));
      Buffer.add_char b ':';
      Types.buf_msg_code b (code land ((1 lsl 40) - 1)))

let wire_codec = (wire_renderer, wire_code)

(* Cluster trace templates, registered at module init (the [Run] functor
   below is applied once per run).  Note the literal "site%d" wording —
   these are physical, not logical, site numbers. *)

let tmpl_torn =
  Trace.register_template (fun b _ tid _ _ _ _ ->
      Buffer.add_char b 't';
      Buffer.add_string b (string_of_int tid);
      Buffer.add_string b " TORN")

let tmpl_never_reached =
  Trace.register_template (fun b _ tid site _ _ _ ->
      Buffer.add_char b 't';
      Buffer.add_string b (string_of_int tid);
      Buffer.add_string b ": site";
      Buffer.add_string b (string_of_int site);
      Buffer.add_string b " never reached; local abort")

let tmpl_crashed =
  Trace.register_template (fun b _ site _ _ _ _ ->
      Buffer.add_string b "site";
      Buffer.add_string b (string_of_int site);
      Buffer.add_string b " CRASHED")

let tmpl_recovered =
  Trace.register_template (fun b _ site redone in_doubt aborted _ ->
      Buffer.add_string b "site";
      Buffer.add_string b (string_of_int site);
      Buffer.add_string b " RECOVERED redo=";
      Buffer.add_string b (string_of_int redone);
      Buffer.add_string b " in-doubt=";
      Buffer.add_string b (string_of_int in_doubt);
      Buffer.add_string b " aborted=";
      Buffer.add_string b (string_of_int aborted))

let tmpl_adopted =
  Trace.register_template (fun b _ tid site commit _ _ ->
      Buffer.add_char b 't';
      Buffer.add_string b (string_of_int tid);
      Buffer.add_string b ": site";
      Buffer.add_string b (string_of_int site);
      Buffer.add_string b " in doubt; adopts ";
      Buffer.add_string b (if commit = 1 then "commit" else "abort"))

(* Per-domain reusable state for cluster sweeps: one engine whose heap
   array survives (reset, not reallocated) across runtimes.  The trace
   store is not part of the scratch — each run gets a fresh one so
   [report.trace] never aliases a later run's data. *)
type scratch = { scratch_engine : Engine.t }

let make_scratch () =
  { scratch_engine = Engine.create ~trace:(Trace.create ~enabled:false ()) () }

(* Decision reasons that only the termination machinery (or a timeout /
   UD transition standing in for it) can produce; the failure-free flow
   decides through fact1-case1 / fact2-case1 / plain command receipt. *)
let termination_reason =
  let tagged =
    List.filter (fun r -> r <> "fact1-case1") Termination.fact1_reasons
    @ List.filter (fun r -> r <> "fact2-case1") Termination.fact2_reasons
    @ [
        "transient-5t-commit";
        "collect-abort";
        "w2-expired";
        "ud-yes";
        "ud-xact";
        "w1-timeout";
        (* Paxos Commit: a decision chosen at a ballot > 0 means a
           replacement leader drove the instances home — the consensus
           counterpart of a termination-protocol invocation. *)
        "px-chosen-recovery";
      ]
  in
  fun r -> List.mem r tagged

module Run (P : Site.S) = struct
  type txn_rt = {
    spec : Tm.txn_spec;
    master : Site_id.t;
    admitted_at : Vtime.t;
    mutable instances : P.t array;
    decisions : Types.decision option array;
    fenced : bool array;
        (* a fenced site's protocol instance is a ghost: its volatile
           state predates a crash (or the site was down when the
           transaction was admitted), so it may neither send, receive,
           nor decide — the recovery rule decides for it *)
    awaiting : bool array;
        (* recovered in-doubt sites waiting to adopt the group's first
           decision *)
    mutable terminated : bool;
    mutable settled : bool;
  }

  type state = {
    config : config;
    engine : Engine.t;
    trace_store : Trace.t;
    tracing : bool;
    topic_cluster : Trace.topic;
    obs : Obs.t;
    obs_on : bool;  (* cached Obs.enabled *)
    net : wire Network.t;
    stores : Durable_site.t array;
    scheduler : Tm.txn_spec Scheduler.t;
    txns : (int, txn_rt) Hashtbl.t;
    metrics : Metrics.t;
    auditor : Auditor.t;
    dead : bool array;  (* crash-stopped sites, index = physical - 1 *)
    horizon : Vtime.t;
    prof : Prof.t option;  (* Some only when [config.profile] *)
  }

  (* Profiler brackets; no-ops (no closure, no allocation) when
     profiling is off. *)
  let prof_enter state b =
    match state.prof with Some p -> Prof.enter p b | None -> ()

  let prof_leave state =
    match state.prof with Some p -> Prof.leave p | None -> ()

  let store state site = state.stores.(Site_id.to_int site - 1)

  let now state = Engine.now state.engine

  (* Call sites guard with [state.tracing]. *)
  let log1 state tmpl a0 =
    Trace.log1 state.trace_store ~at:(now state) ~topic:state.topic_cluster
      tmpl a0

  let log2 state tmpl a0 a1 =
    Trace.log2 state.trace_store ~at:(now state) ~topic:state.topic_cluster
      tmpl a0 a1

  let log3 state tmpl a0 a1 a2 =
    Trace.log3 state.trace_store ~at:(now state) ~topic:state.topic_cluster
      tmpl a0 a1 a2

  let log4 state tmpl a0 a1 a2 a3 =
    Trace.log4 state.trace_store ~at:(now state) ~topic:state.topic_cluster
      tmpl a0 a1 a2 a3

  (* Per-transaction master relabeling: the protocol stack hard-wires
     "site 1 masters", so a transaction coordinated by physical site m
     sees logical ids rotated to put m at 1.  The bijection keeps
     self-sends impossible and the wire purely physical. *)
  let logical_of ~n ~master phys =
    Site_id.of_int (((Site_id.to_int phys - Site_id.to_int master + n) mod n) + 1)

  let physical_of ~n ~master logical =
    Site_id.of_int
      (((Site_id.to_int logical - 1 + (Site_id.to_int master - 1)) mod n) + 1)

  (* Admission-to-settlement lifecycle on track 0: [queued] (if the
     scheduler deferred it) then the root admission span. *)
  let obs_seal_track state tid =
    let at = now state in
    while Obs.open_depth state.obs ~site:0 ~tid > 0 do
      Obs.span_end state.obs ~at ~site:0 ~tid
    done

  (* Settlement is judged over live sites only: a crash-stopped site
     never decides and is nobody's fault. *)
  let live_complete state rt =
    let ok = ref true in
    Array.iteri
      (fun i d -> if (not state.dead.(i)) && d = None then ok := false)
      rt.decisions;
    !ok

  let rec settle state rt =
    rt.settled <- true;
    if state.obs_on then obs_seal_track state rt.spec.Tm.tid;
    let at = now state in
    let m = state.metrics in
    let all d =
      let any = ref false and ok = ref true in
      Array.iteri
        (fun i d' ->
          if not state.dead.(i) then
            match d' with
            | Some x when Types.equal_decision x d -> any := true
            | Some _ | None -> ok := false)
        rt.decisions;
      !any && !ok
    in
    (if all Types.Commit then begin
       Metrics.incr m "txn.committed";
       Metrics.mark m ~at "commits";
       Metrics.observe m "latency.commit" (Vtime.sub at rt.admitted_at)
     end
     else if all Types.Abort then begin
       Metrics.incr m "txn.aborted";
       Metrics.mark m ~at "aborts"
     end
     else begin
       Metrics.incr m "txn.torn";
       if state.tracing then log1 state tmpl_torn rt.spec.tid
     end);
    Metrics.incr m "txn.settled";
    Metrics.observe m "latency.settle" (Vtime.sub at rt.admitted_at);
    if rt.terminated then begin
      Metrics.incr m "txn.termination";
      Metrics.mark m ~at "terminations"
    end;
    Scheduler.complete state.scheduler;
    pump state

  and apply_decision state rt phys_index decision ~durable =
    rt.decisions.(phys_index) <- Some decision;
    let site = Site_id.of_int (phys_index + 1) in
    (if durable then
       let d = store state site in
       match decision with
       | Types.Commit -> Durable_site.commit d ~tid:rt.spec.tid ()
       | Types.Abort -> Durable_site.abort d ~tid:rt.spec.tid);
    prof_enter state Prof.Auditor;
    Auditor.record state.auditor ~tid:rt.spec.tid ~site decision;
    prof_leave state;
    (* Recovered in-doubt sites adopt the group's first decision;
       all-or-nothing agreement makes "first" equal "the" group
       decision. *)
    Array.iteri
      (fun j waiting ->
        if waiting && rt.decisions.(j) = None && not state.dead.(j) then begin
          rt.awaiting.(j) <- false;
          adopt state rt j decision
        end)
      rt.awaiting;
    if (not rt.settled) && live_complete state rt then settle state rt

  and adopt state rt phys_index decision =
    (* Group-decision adoption after a restart.  The durable work
       depends on how far this site got before the crash: [`Prepared]
       means the forced Stage record re-staged the updates and a plain
       durable decision finishes the job.  [`Active] means the site
       crashed between its vote and the forced prepare — yet the group
       may have committed over the survivors, so a commit must re-stage
       the spec's writes before it moves the money (an abort just logs).
       [`Unknown] means the transaction was admitted during the outage;
       a group commit still binds this site, so begin, stage and commit
       durably, while an abort needs no WAL record at all.  Any other
       status means the replay already wrote the local outcome and only
       the auditor needs the decision. *)
    let site = Site_id.of_int (phys_index + 1) in
    let d = store state site in
    let tid = rt.spec.Tm.tid in
    let durable =
      match (Durable_site.status d ~tid, decision) with
      | `Prepared, _ | `Active, Types.Abort -> true
      | (`Active | `Unknown), Types.Commit ->
          let writes =
            match List.assoc_opt site rt.spec.Tm.writes with
            | Some updates -> updates
            | None -> []
          in
          if Durable_site.status d ~tid = `Unknown then
            Durable_site.begin_transaction d ~tid;
          Durable_site.stage d ~tid writes;
          true
      | `Unknown, Types.Abort -> false
      | (`Committed | `Aborted | `Ended), _ -> false
    in
    if state.tracing then
      log3 state tmpl_adopted rt.spec.tid (phys_index + 1)
        (match decision with Types.Commit -> 1 | Types.Abort -> 0);
    apply_decision state rt phys_index decision ~durable

  and record_decision state rt phys_index decision =
    (* A crash-stopped site's local timers can still fire and "decide"
       in its isolated ghost state, and after a recovery the pre-crash
       instance is a fenced ghost whose volatile state was lost; nothing
       either does may reach the durable store or the auditor. *)
    if (not state.dead.(phys_index))
       && (not rt.fenced.(phys_index))
       && rt.decisions.(phys_index) = None
    then apply_decision state rt phys_index decision ~durable:true

  and start state spec master =
    let n = state.config.n in
    let at = now state in
    if state.obs_on then begin
      let tid = spec.Tm.tid in
      if Obs.open_depth state.obs ~site:0 ~tid > 0 then
        Obs.span_end state.obs ~at ~site:0 ~tid;  (* queued *)
      Obs.span_begin state.obs ~at ~site:0 ~tid ~cat:"txn" "txn"
    end;
    Metrics.mark state.metrics ~at "admissions";
    Metrics.observe state.metrics "wait.queue" (Vtime.sub at spec.Tm.start_at);
    prof_enter state Prof.Auditor;
    Auditor.begin_txn state.auditor ~tid:spec.Tm.tid
      ~contributions:(Workload.transfer_contributions spec);
    prof_leave state;
    let rt =
      {
        spec;
        master;
        admitted_at = at;
        instances = [||];
        decisions = Array.make n None;
        (* A site that is down at admission never sees the transaction:
           no durable begin, and its instance is born fenced. *)
        fenced = Array.init n (fun i -> state.dead.(i));
        awaiting = Array.make n false;
        terminated = false;
        settled = false;
      }
    in
    Hashtbl.add state.txns spec.Tm.tid rt;
    let writes_of site =
      match List.assoc_opt site spec.Tm.writes with
      | Some updates -> updates
      | None -> []
    in
    let instances =
      Array.init n (fun i ->
          let phys = Site_id.of_int (i + 1) in
          if not state.dead.(i) then begin
            let durable = store state phys in
            Durable_site.begin_transaction durable ~tid:spec.Tm.tid;
            Durable_site.stage durable ~tid:spec.Tm.tid (writes_of phys)
          end;
          let self = logical_of ~n ~master phys in
          let ctx =
            Ctx.make ~engine:state.engine ~n ~t_unit:state.config.t_unit ~self
              ~trans_id:spec.Tm.tid
              ~send:(fun dst body ->
                if not rt.fenced.(i) then
                  Network.send state.net ~src:phys
                    ~dst:(physical_of ~n ~master dst)
                    { wtid = spec.Tm.tid; body })
              ~on_decide:(fun decision -> record_decision state rt i decision)
              ~on_reason:(fun r ->
                Metrics.incr state.metrics ("reason." ^ r);
                if termination_reason r then rt.terminated <- true)
              ~obs:state.obs
              ~obs_site:(Site_id.to_int phys) ()
          in
          let role =
            if Site_id.is_master self then Site.Master_role
            else Site.Slave_role { vote_yes = true }
          in
          P.create ctx role)
    in
    rt.instances <- instances;
    (* Same guard as Tm: a site cut off before the transaction reaches
       it sits in its initial state forever; abort it locally well past
       any legitimate quiet period. *)
    Array.iteri
      (fun i instance ->
        ignore
          (Engine.schedule state.engine ~rank:Engine.Timer
             ~delay:(Vtime.of_int (12 * Vtime.to_int state.config.t_unit))
             ~label:(Label.Static "q-watchdog")
             (fun () ->
               let initial =
                 match P.state_name instance with
                 | "q" | "q1" -> true
                 | _ -> false
               in
               if rt.decisions.(i) = None && initial then begin
                 if state.tracing then
                   log2 state tmpl_never_reached rt.spec.tid (i + 1);
                 record_decision state rt i Types.Abort
               end)))
      instances;
    P.begin_transaction instances.(Site_id.to_int master - 1)

  and pump state =
    let alive s = not state.dead.(Site_id.to_int s - 1) in
    let rec drain () =
      match
        Scheduler.next state.scheduler ~alive ~timeline:state.config.timeline
          ~now:(now state) ()
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
      Scheduler.submit state.scheduler
        ~alive:(fun s -> not state.dead.(Site_id.to_int s - 1))
        ~timeline:state.config.timeline ~now:at spec
    with
    | `Admit master -> start state spec master
    | `Enqueued ->
        if state.obs_on then
          Obs.span_begin state.obs ~at ~site:0 ~tid:spec.Tm.tid
            ~cat:"lifecycle" "queued"
    | `Rejected ->
        if state.obs_on then
          Obs.instant state.obs ~at ~site:0 ~tid:spec.Tm.tid ~cat:"lifecycle"
            "rejected";
        Metrics.incr state.metrics "txn.rejected";
        Metrics.mark state.metrics ~at "rejections"

  let run ~obs ~scratch config =
    if config.load < 1 then invalid_arg "Runtime.run: load must be >= 1";
    if config.window < 1 then invalid_arg "Runtime.run: window must be >= 1";
    if config.amount <= 0 || config.amount >= config.balance then
      invalid_arg "Runtime.run: need 0 < amount < balance";
    if config.n < 2 then invalid_arg "Runtime.run: need at least two sites";
    (match config.snapshot_every with
    | Some every when Vtime.to_int every <= 0 ->
        invalid_arg "Runtime.run: snapshot_every must be positive"
    | Some _ | None -> ());
    List.iter
      (fun (site, _) ->
        if Site_id.to_int site > config.n then
          invalid_arg
            (Printf.sprintf "Runtime.run: crash site %d out of range (n=%d)"
               (Site_id.to_int site) config.n))
      config.crashes;
    List.iter
      (fun (site, at) ->
        if Site_id.to_int site > config.n then
          invalid_arg
            (Printf.sprintf "Runtime.run: recovery site %d out of range (n=%d)"
               (Site_id.to_int site) config.n);
        if
          not
            (List.exists
               (fun (s, c) -> Site_id.equal s site && Vtime.( < ) c at)
               config.crashes)
        then
          invalid_arg
            (Printf.sprintf
               "Runtime.run: recovery for site %d has no earlier crash"
               (Site_id.to_int site)))
      config.recoveries;
    let trace_store = Trace.create ~enabled:config.trace_enabled () in
    let engine =
      match scratch with
      | Some s ->
          Engine.reset ~trace:trace_store s.scratch_engine;
          s.scratch_engine
      | None -> Engine.create ~trace:trace_store ()
    in
    let prof = if config.profile then Some (Prof.create ()) else None in
    let net =
      Network.create ~engine ~n:config.n ~t_max:config.t_unit ~mode:config.mode
        ~partition:config.timeline ~delay:config.delay ~seed:config.seed
        ~pp_payload:pp_wire ~payload_codec:wire_codec ~obs
        ~obs_tid:(fun w -> w.wtid)
        ?prof ()
    in
    let metrics = Metrics.create ~bucket:config.bucket ~t_unit:config.t_unit () in
    (* The snapshot cursor must exist before anything records. *)
    let cursor = Option.map (fun _ -> Metrics.create_cursor metrics) config.snapshot_every in
    let horizon = Vtime.add config.duration config.drain in
    let state =
      {
        config;
        engine;
        trace_store;
        tracing = Trace.enabled trace_store;
        topic_cluster = Trace.topic trace_store "cluster";
        obs;
        obs_on = Obs.enabled obs;
        net;
        stores = Array.init config.n (fun _ -> Durable_site.create ());
        scheduler =
          Scheduler.create ~policy:config.policy
            ?queue_limit:config.queue_limit
            ~pause_during_cut:config.pause_during_cut ~window:config.window
            ~n:config.n ();
        txns = Hashtbl.create 256;
        metrics;
        auditor = Auditor.create ~n:config.n ();
        dead = Array.make config.n false;
        horizon;
        prof;
      }
    in
    (* Streaming telemetry: the span->histogram bridge drains closed
       Obs spans into "span.<cat>.<name>" histograms (it only exists
       when the recorder does, so trace-off runs pay nothing); gauges
       are sampled at every cut and once at the horizon. *)
    let bridge = if Obs.enabled obs then Some (Span_bridge.create obs) else None in
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
        Hashtbl.fold
          (fun _ rt n ->
            if (not rt.settled) && Vtime.( < ) (Vtime.add rt.admitted_at stall) at
            then n + 1
            else n)
          state.txns 0
      in
      Metrics.set_gauge metrics "gauge.blocked" blocked;
      Metrics.set_gauge metrics "gauge.live_sites"
        (Array.fold_left (fun n dead -> if dead then n else n + 1) 0 state.dead);
      (* Down now, but scheduled to come back: the sites a soak is
         actively waiting on. *)
      Metrics.set_gauge metrics "gauge.recovering_sites"
        (List.fold_left
           (fun n (site, _) ->
             if state.dead.(Site_id.to_int site - 1) then n + 1 else n)
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
    (* Crash-stop timeline: silence the site on the wire, release the
       auditor and any in-flight transactions that are now complete over
       the survivors, and keep the site out of master rotation. *)
    List.iter
      (fun (site, at) ->
        ignore
          (Engine.schedule_at engine ~at ~label:(Label.Static "crash")
             (fun () ->
               let i = Site_id.to_int site - 1 in
               if not state.dead.(i) then begin
                 state.dead.(i) <- true;
                 Network.crash state.net site;
                 Metrics.incr metrics "site.crashes";
                 (* Volatile state dies with the site; the WAL (and the
                    Stage records it carries for prepared transactions)
                    is what a later recovery replays. *)
                 Durable_site.crash (store state site);
                 if state.tracing then log1 state tmpl_crashed (i + 1);
                 Auditor.mark_dead state.auditor ~site;
                 let stranded =
                   Hashtbl.fold
                     (fun _ rt acc ->
                       if (not rt.settled) && live_complete state rt then
                         rt :: acc
                       else acc)
                     state.txns []
                   |> List.sort (fun a b ->
                          Int.compare a.spec.Tm.tid b.spec.Tm.tid)
                 in
                 List.iter
                   (fun rt -> if not rt.settled then settle state rt)
                   stranded
               end)))
      config.crashes;
    (* Crash-recover timeline: at the UP instant the site replays its
       WAL, applies the paper's recovery rule to every transaction it
       was fenced out of, and rejoins scheduling, settlement and the
       auditor. *)
    List.iter
      (fun (site, at) ->
        ignore
          (Engine.schedule_at engine ~at ~label:(Label.Static "recover")
             (fun () ->
               let i = Site_id.to_int site - 1 in
               if state.dead.(i) then begin
                 (* Every instance alive right now predates the restart:
                    all are ghosts (their volatile state died with the
                    crash) and stay fenced forever — the recovery rule
                    below speaks for this site instead. *)
                 Hashtbl.iter (fun _ rt -> rt.fenced.(i) <- true) state.txns;
                 state.dead.(i) <- false;
                 Network.recover state.net site;
                 Auditor.mark_recovered state.auditor ~site;
                 Metrics.incr metrics "site.recoveries";
                 let durable = store state site in
                 (* The group outranks the local WAL.  Termination can
                    commit a transaction whose crashed participant had
                    voted yes but not yet forced its prepare record, so
                    a unilateral replay-abort of an active transaction
                    could diverge from a group commit.  Keep every
                    active transaction the group has not decided open
                    across the replay; afterwards resolve each open
                    transaction against the group's first recorded
                    decision — adopt it, or wait for one. *)
                 let open_txns =
                   Hashtbl.fold
                     (fun _ rt acc ->
                       if rt.decisions.(i) = None then rt :: acc else acc)
                     state.txns []
                   |> List.sort (fun a b ->
                          Int.compare a.spec.Tm.tid b.spec.Tm.tid)
                 in
                 let undecided =
                   List.filter_map
                     (fun rt ->
                       if Durable_site.status durable ~tid:rt.spec.Tm.tid
                          = `Active
                       then Some rt.spec.Tm.tid
                       else None)
                     open_txns
                 in
                 let rep = Durable_site.recover ~undecided durable in
                 Metrics.add metrics "recovery.redone" (List.length rep.redone);
                 Metrics.add metrics "recovery.in_doubt"
                   (List.length rep.in_doubt);
                 Metrics.add metrics "recovery.aborted"
                   (List.length rep.aborted);
                 if state.tracing then
                   log4 state tmpl_recovered (i + 1) (List.length rep.redone)
                     (List.length rep.in_doubt)
                     (List.length rep.aborted);
                 (* Anything the replay still aborted unilaterally (an
                    active transaction the runtime no longer tracks) is
                    already logged; the auditor just needs to hear it. *)
                 List.iter
                   (fun tid ->
                     match Hashtbl.find_opt state.txns tid with
                     | Some rt when rt.decisions.(i) = None ->
                         apply_decision state rt i Types.Abort ~durable:false
                     | Some _ | None -> ())
                   rep.aborted;
                 List.iter
                   (fun rt ->
                     if rt.decisions.(i) = None then
                       let group_decision =
                         Array.fold_left
                           (fun acc d ->
                             match acc with Some _ -> acc | None -> d)
                           None rt.decisions
                       in
                       match Recovery.resolve ~group_decision with
                       | Recovery.Adopt d -> adopt state rt i d
                       | Recovery.Wait -> rt.awaiting.(i) <- true)
                   open_txns;
                 (* The scheduler sees the site again on the next pump;
                    do one now so admission resumes promptly. *)
                 pump state
               end)))
      config.recoveries;
    (* Count termination-protocol probes directly off the wire. *)
    Network.set_tap net (fun event ->
        match event with
        | Network.Sent { env; _ } -> (
            match env.payload.body with
            | Types.Probe _ -> Metrics.incr metrics "net.probes"
            | _ -> ())
        | Network.Delivered _ | Network.Bounced _ | Network.Lost _ -> ());
    Network.set_handler net (fun phys delivery ->
        let wtid =
          match delivery with
          | Network.Msg e | Network.Undeliverable e -> e.payload.wtid
        in
        match Hashtbl.find_opt state.txns wtid with
        | None -> ()
        | Some rt ->
            let n = config.n in
            let relabel (e : wire Network.envelope) =
              {
                Network.src = logical_of ~n ~master:rt.master e.src;
                dst = logical_of ~n ~master:rt.master e.dst;
                payload = e.payload.body;
                sent_at = e.sent_at;
              }
            in
            let unwrapped =
              match delivery with
              | Network.Msg e -> Network.Msg (relabel e)
              | Network.Undeliverable e -> Network.Undeliverable (relabel e)
            in
            let i = Site_id.to_int phys - 1 in
            (* A fenced instance lost its volatile state in a crash;
               deliveries that outlived the outage must not wake it. *)
            if not rt.fenced.(i) then begin
              let instance = rt.instances.(i) in
              prof_enter state Prof.Protocol;
              P.on_delivery instance unwrapped;
              (* Reaching the prepared state must survive a restart. *)
              (match P.state_name instance with
              | "p" | "p1" ->
                  let durable = store state phys in
                  if Durable_site.status durable ~tid:wtid = `Active then
                    Durable_site.prepare durable ~tid:wtid
              | _ -> ());
              prof_leave state
            end);
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
    Obs.close_open_spans obs ~at:(Engine.now engine);
    (* Shutdown accounting. *)
    let blocked = ref 0 in
    Hashtbl.iter
      (fun _ rt -> if not rt.settled then incr blocked)
      state.txns;
    Metrics.add metrics "txn.blocked" !blocked;
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
    let disk_total =
      Array.fold_left
        (fun acc durable ->
          List.fold_left
            (fun acc (key, value) ->
              if String.length key >= 5 && String.sub key 0 5 = "acct:" then
                acc + int_of_string value
              else acc)
            acc
            (Kv.snapshot (Durable_site.database durable)))
        0 state.stores
    in
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
      blocked = !blocked;
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
      disk_total;
      auditor = state.auditor;
      metrics;
      net_stats = Network.stats net;
      trace = trace_store;
      trace_dropped = Trace.dropped trace_store;
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
