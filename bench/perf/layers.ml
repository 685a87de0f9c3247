(* Per-layer legs: each layer's own public API driven in isolation, at
   the sizes the workload's reps recorded (events, messages,
   transactions, WAL length, spans), plus the per-run checker fold.
   The legs' costs, multiplied by the workload's counts, form a cost
   model of a rep whose gap to the measured rep time is
   [runtime.residual_share]. *)

open Workloads

let quiet_trace () = Trace.create ~enabled:false ()

let leg_label = Label.Static "perf-leg"

(* Schedule/pop at a fixed queue depth: every popped event schedules
   one replacement at a pseudo-random delay until [events] have run. *)
let engine_leg ~depth ~events =
  Timing.leg
    ~setup:(fun () ->
      let e = Engine.create ~trace:(quiet_trace ()) () in
      let budget = ref events and lcg = ref 12345 in
      let rec fire () =
        decr budget;
        if !budget > 0 then begin
          lcg := ((!lcg * 1103515245) + 12345) land 0x3FFFFFFF;
          ignore
            (Engine.schedule e ~rank:Engine.Delivery
               ~delay:(Vtime.of_int (1 + (!lcg mod 1000)))
               ~label:leg_label fire)
        end
      in
      for i = 1 to depth do
        ignore
          (Engine.schedule e ~delay:(Vtime.of_int (1 + (i mod 1000))) ~label:leg_label fire)
      done;
      e)
    (fun e ->
      Engine.run e;
      Engine.events_run e)

(* [networks] times: Network.create on a reset engine with the
   workload's delay model and partition, then [msgs] sends in up to 100
   batches spread over the horizon, each delivered (or bounced) by the
   engine.  A cluster rep is one network; a checker run is one small
   one. *)
let network_leg ~(shape : shape) ~networks ~msgs =
  let n = shape.n in
  let batches = Stdlib.min msgs 100 in
  let per_batch = Stdlib.max 1 (msgs / batches) in
  let gap = Stdlib.max 1 (Vtime.to_int shape.horizon / batches) in
  Timing.leg
    ~setup:(fun () -> Engine.create ~trace:(quiet_trace ()) ())
    (fun engine ->
      let sent = ref 0 in
      for _ = 1 to networks do
        Engine.reset engine;
        let net =
          Network.create ~engine ~n ~t_max:t_unit ~partition:shape.timeline
            ~delay:shape.delay ~seed:7L ()
        in
        Network.set_handler net (fun _ _ -> ());
        for b = 0 to batches - 1 do
          ignore
            (Engine.schedule_at engine ~at:(Vtime.of_int (b * gap)) ~label:leg_label
               (fun () ->
                 for k = 0 to per_batch - 1 do
                   let src = k mod n in
                   let dst = (src + 1 + (k / n mod (n - 1))) mod n in
                   Network.send net ~src:(Site_id.of_int (src + 1))
                     ~dst:(Site_id.of_int (dst + 1)) k
                 done))
        done;
        Engine.run engine;
        sent := !sent + (Network.stats net).sent
      done;
      !sent)

let runner_leg grid =
  Timing.leg ~repeats:3 ~setup:Runner.make_scratch (fun scratch ->
      List.iter (fun c -> ignore (Runner.run ~scratch protocol c)) grid;
      List.length grid)

type fold = {
  run_ns : float list;  (** per Runner.run *)
  verdict_ns : float;  (** totals over the grid *)
  merge_ns : float;
  fold_s : float;
}

(* The checker's per-run fold, each piece timed per run. *)
let fold_leg grid =
  let scratch = Runner.make_scratch () in
  let name = Site.name protocol in
  let verdict = ref 0 and merge = ref 0 and runs = ref [] in
  let acc = ref (Sweep.run protocol []) in
  List.iter
    (fun config ->
      let t0 = Timing.now_ns () in
      let r = Runner.run ~scratch protocol config in
      let t1 = Timing.now_ns () in
      let v = Verdict.of_result r in
      let t2 = Timing.now_ns () in
      acc := Sweep.merge ~keep:3 !acc (Sweep.of_verdict ~protocol:name (config, v));
      let t3 = Timing.now_ns () in
      runs := float_of_int (t1 - t0) :: !runs;
      verdict := !verdict + (t2 - t1);
      merge := !merge + (t3 - t2))
    grid;
  let total = List.fold_left ( +. ) 0. !runs +. float_of_int (!verdict + !merge) in
  {
    run_ns = !runs;
    verdict_ns = float_of_int !verdict;
    merge_ns = float_of_int !merge;
    fold_s = total *. 1e-9;
  }

let transfers ~n ~txns =
  Array.init txns (fun i ->
      Workload.transfer ~tid:(i + 1) ~start_at:Vtime.zero
        ~debtor:(Site_id.of_int (1 + (i mod n)))
        ~creditor:(Site_id.of_int (1 + ((i + 1) mod n)))
        ~balance:1000 ~amount:25)

let writes_of (spec : Tm.txn_spec) site =
  match List.assoc_opt site spec.writes with Some u -> u | None -> []

(* The runtime's durable sequence for one committed transaction: every
   site begins and stages, forces its prepare, then commits. *)
let durable_commit stores (spec : Tm.txn_spec) =
  Array.iteri
    (fun i d ->
      let site = Site_id.of_int (i + 1) and tid = spec.tid in
      Durable_site.begin_transaction d ~tid;
      Durable_site.stage d ~tid (writes_of spec site);
      Durable_site.prepare d ~tid;
      Durable_site.commit d ~tid ())
    stores

let storage_leg ~n specs =
  Timing.leg
    ~setup:(fun () -> Array.init n (fun _ -> Durable_site.create ()))
    (fun stores ->
      Array.iter (durable_commit stores) specs;
      Array.length specs)

let wal_records_per_txn ~n specs =
  let stores = Array.init n (fun _ -> Durable_site.create ()) in
  Array.iter (durable_commit stores) specs;
  let records =
    Array.fold_left (fun acc d -> acc + List.length (Durable_site.wal_records d)) 0 stores
  in
  float_of_int records /. float_of_int (Stdlib.max 1 (Array.length specs))

(* Crash and recover one site whose WAL holds [tids] transactions, the
   last [window] of them prepared and in doubt. *)
let recover_leg ~tids ~window =
  let cost =
    Timing.leg
      ~setup:(fun () ->
        let d = Durable_site.create () in
        for tid = 1 to tids do
          Durable_site.begin_transaction d ~tid;
          Durable_site.stage d ~tid [ { Wal.key = "acct:" ^ string_of_int tid; value = "975" } ];
          Durable_site.prepare d ~tid;
          if tid <= tids - window then Durable_site.commit d ~tid ()
        done;
        d)
      (fun d ->
        ignore (Durable_site.recover d);
        1)
  in
  cost.ns_per_op *. 1e-6

let locks_leg specs =
  let keys =
    Array.map
      (fun (spec : Tm.txn_spec) ->
        List.concat_map (fun (_, updates) -> List.map (fun u -> u.Wal.key) updates) spec.writes)
      specs
  in
  Timing.leg ~repeats:3 ~setup:Lock_manager.create (fun lm ->
      Array.iteri
        (fun i ks ->
          let tid = i + 1 in
          List.iter
            (fun key -> ignore (Lock_manager.acquire lm ~tid ~key ~mode:Lock_manager.Exclusive))
            ks;
          ignore (Lock_manager.release_all lm ~tid))
        keys;
      Array.length keys)

let arrival (config : Runtime.config) i =
  Vtime.of_int (i * 100 * Vtime.to_int config.t_unit / config.load)

let scheduler_leg (config : Runtime.config) specs =
  let alive _ = true in
  Timing.leg
    ~setup:(fun () ->
      Scheduler.create ~policy:config.policy ?queue_limit:config.queue_limit
        ~window:config.window ~n:config.n ())
    (fun s ->
      Array.iteri
        (fun i spec ->
          let now = arrival config i in
          ignore (Scheduler.submit s ~alive ~timeline:config.timeline ~now spec);
          if Scheduler.in_flight s >= config.window then begin
            Scheduler.complete s;
            ignore (Scheduler.next s ~alive ~timeline:config.timeline ~now ())
          end)
        specs;
      Array.length specs)

let auditor_leg ~n specs =
  let contributions = Array.map Workload.transfer_contributions specs in
  Timing.leg
    ~setup:(fun () -> Auditor.create ~n ())
    (fun a ->
      Array.iteri
        (fun i contributions ->
          let tid = i + 1 in
          Auditor.begin_txn a ~tid ~contributions;
          for s = 1 to n do
            Auditor.record a ~tid ~site:(Site_id.of_int s) Types.Commit
          done)
        contributions;
      Array.length contributions)

(* The runtime's per-transaction metrics calls on the commit path:
   offer, admission, commit and settlement. *)
let record_txn m ~at ~latency =
  Metrics.incr m "txn.offered";
  Metrics.mark m ~at "arrivals";
  Metrics.mark m ~at "admissions";
  Metrics.observe m "wait.queue" 0;
  Metrics.incr m "txn.committed";
  Metrics.mark m ~at "commits";
  Metrics.observe m "latency.commit" latency;
  Metrics.incr m "txn.settled";
  Metrics.observe m "latency.settle" latency

let metrics_leg (config : Runtime.config) ~txns =
  Timing.leg
    ~setup:(fun () -> Metrics.create ~bucket:config.bucket ~t_unit:config.t_unit ())
    (fun m ->
      for i = 0 to txns - 1 do
        record_txn m ~at:(arrival config i) ~latency:(1000 + (i mod 4000))
      done;
      txns)

(* Microseconds per windowed snapshot of a pipeline fed the run's
   transactions, [windows] cuts over the horizon. *)
let snapshot_leg (config : Runtime.config) ~txns ~windows =
  let horizon = Vtime.to_int (arrival config txns) in
  let width = Stdlib.max 1 (horizon / Stdlib.max 1 windows) in
  let sample () =
    let m = Metrics.create ~bucket:config.bucket ~t_unit:config.t_unit () in
    let cursor = Metrics.create_cursor m in
    let spent = ref 0 and cuts = ref 0 and i = ref 0 in
    for w = 1 to windows do
      let upto = w * width in
      while !i < txns && Vtime.to_int (arrival config !i) <= upto do
        record_txn m ~at:(arrival config !i) ~latency:(1000 + (!i mod 4000));
        incr i
      done;
      let t0 = Timing.now_ns () in
      ignore (Metrics.snapshot m cursor ~at:(Vtime.of_int upto) ~final:(w = windows));
      spent := !spent + (Timing.now_ns () - t0);
      incr cuts
    done;
    float_of_int !spent /. float_of_int (Stdlib.max 1 !cuts) *. 1e-3
  in
  Timing.median (List.init 5 (fun _ -> sample ()))

let tmpl_leg =
  Trace.register_template (fun b _ a0 a1 a2 _ _ ->
      Buffer.add_string b (string_of_int a0);
      Buffer.add_char b ' ';
      Buffer.add_string b (string_of_int a1);
      Buffer.add_char b ' ';
      Buffer.add_string b (string_of_int a2))

let trace_leg ~records =
  Timing.leg
    ~setup:(fun () ->
      let t = Trace.create () in
      (t, Trace.topic t "perf"))
    (fun (t, topic) ->
      for i = 1 to records do
        Trace.log3 t ~at:(Vtime.of_int i) ~topic tmpl_leg i (i land 7) 1
      done;
      records)

let span_names = [| "q"; "w"; "p"; "c" |]

let record_spans o ~n ~spans =
  for i = 0 to spans - 1 do
    let site = 1 + (i mod n) and tid = 1 + (i / n) and at = Vtime.of_int i in
    Obs.span_begin o ~at ~site ~tid span_names.(i land 3);
    Obs.span_end o ~at:(Vtime.of_int (i + 7)) ~site ~tid
  done

let obs_leg ~n ~spans =
  Timing.leg ~setup:Obs.create (fun o ->
      record_spans o ~n ~spans;
      spans)

let bridge_leg ~n ~spans =
  Timing.leg
    ~setup:(fun () ->
      let o = Obs.create () in
      record_spans o ~n ~spans;
      (Span_bridge.create o, Metrics.create ~t_unit ()))
    (fun (bridge, m) ->
      Span_bridge.flush bridge m;
      spans)

let prof_leg () =
  let pairs = 100_000 in
  Timing.leg ~setup:Prof.create (fun p ->
      for _ = 1 to pairs do
        Prof.enter p Prof.Network;
        Prof.leave p
      done;
      pairs)

(* Flat profile shares with the profiler's own cost taken out: every
   bucket but the residual engine bucket was entered [entries] times,
   and each enter/leave pair costs [pair_s]. *)
let prof_shares (report : Prof.report) ~pair_s =
  let corrected =
    List.map
      (fun (row : Prof.row) ->
        let s =
          if String.equal row.row_bucket "engine" then row.row_seconds
          else Float.max 0. (row.row_seconds -. (float_of_int row.row_entries *. pair_s))
        in
        (row.row_bucket, s))
      report.rows
  in
  let total = List.fold_left (fun acc (_, s) -> acc +. s) 0. corrected in
  fun bucket ->
    match List.assoc_opt bucket corrected with
    | Some s when total > 0. -> s /. total
    | Some _ | None -> 0.

type inputs = {
  counts : counts;  (** per-rep work of the workload *)
  shape : shape;
  rep_s : float;  (** untraced rep_s_p50 *)
  traced_rep_s : float;
  minor_words_per_op : float;
  major_per_kop : float;
  profile : Prof.report option;
  report_json_s : float;
  timeline_s : float;
}

(* Leg sizes are capped so that a leg stays well under a second and
   the heap small; per-op costs are flat well before the caps. *)
let max_events = 200_000

let max_records = 100_000

let max_networks = 2000

(* Runs every leg, each inside a benchmark-side span, and returns the
   per-layer metrics plus the bases of the derived ones. *)
let measure ~(tracer : tracer) (x : inputs) =
  let c = x.counts and shape = x.shape in
  (* A full collection before each leg, so no leg pays for the garbage
     of the reps or of the leg before it. *)
  let span name f =
    Gc.full_major ();
    tracer.span ("leg." ^ name) f
  in
  let ops = per_rep c c.ops in
  let events = per_rep c c.events and sent = per_rep c c.sent in
  let bounced = per_rep c c.bounced in
  let cluster = Option.is_some shape.runtime in
  let config =
    match shape.runtime with Some r -> r | None -> Runtime.default_config ()
  in
  (* Per-transaction legs run at the rep's transaction count, capped at
     one cluster rep's size on the checker path. *)
  let txns = Stdlib.max 1 (Stdlib.min (int_of_float ops) 5000) in
  let events_i = Stdlib.min max_events (Stdlib.max 1000 (int_of_float events)) in
  let round v = Stdlib.max 1 (int_of_float (Float.round v)) in
  (* Engine and network legs shaped like checker runs: a queue as deep
     as one run's events, one small network per run. *)
  let small_legs (g : counts) =
    let engine =
      span "engine.run-shaped" (fun () ->
          engine_leg ~depth:(round (per_op g g.events)) ~events:events_i)
    in
    let network =
      span "network.run-shaped" (fun () ->
          network_leg ~shape ~networks:(Stdlib.min max_networks g.ops)
            ~msgs:(round (per_op g g.sent)))
    in
    (engine, network)
  in
  (* On the cluster paths a rep is one deep queue (every arrival is
     scheduled at t=0) and one network carrying every message. *)
  let engine, network =
    if cluster then
      ( span "engine" (fun () -> engine_leg ~depth:(round ops) ~events:events_i),
        span "network" (fun () -> network_leg ~shape ~networks:1 ~msgs:(round sent)) )
    else small_legs c
  in
  (* On the cluster paths the runner grid is the failure-free one; the
     checker path also times the failure-free runs on their own. *)
  let grid_cost = span "runner" (fun () -> runner_leg shape.grid) in
  let grid_counts = if cluster then count_runs shape.grid else c in
  let run_engine, run_network =
    if cluster then small_legs grid_counts else (engine, network)
  in
  let ff =
    if cluster then grid_cost
    else
      span "failure-free" (fun () ->
          runner_leg (failure_free_grid ~size:Full ~seed:1 ~n:3 ~delay:(Delay.uniform ~t_max:t_unit)))
  in
  let fold = span "fold" (fun () -> fold_leg shape.grid) in
  let sweep_s =
    span "sweep" (fun () ->
        Timing.median
          (List.init 3 (fun _ -> snd (Timing.time (fun () -> Sweep.run protocol shape.grid)))))
  in
  let runs = float_of_int (List.length shape.grid) in
  let specs = transfers ~n:shape.n ~txns in
  let storage = span "storage" (fun () -> storage_leg ~n:shape.n specs) in
  let wal_records = wal_records_per_txn ~n:shape.n specs in
  let recover_ms =
    span "recover" (fun () -> recover_leg ~tids:shape.wal_tids ~window:config.window)
  in
  let locks = span "locks" (fun () -> locks_leg specs) in
  let scheduler = span "scheduler" (fun () -> scheduler_leg config specs) in
  let auditor = span "auditor" (fun () -> auditor_leg ~n:shape.n specs) in
  let metrics = span "metrics" (fun () -> metrics_leg config ~txns) in
  let windows =
    if c.snapshots > 0 then round (per_rep c c.snapshots)
    else Stdlib.max 1 (Vtime.to_int shape.horizon / Vtime.to_int (Workloads.ticks 50))
  in
  let snapshot_us = span "snapshot" (fun () -> snapshot_leg config ~txns ~windows) in
  (* Workloads without trace records or spans are sized as if every
     engine event recorded one. *)
  let sized count = Stdlib.min max_records (if count > 0 then round (per_rep c count) else events_i) in
  let trace = span "trace" (fun () -> trace_leg ~records:(sized c.trace_records)) in
  let spans = sized c.spans in
  let obs = span "obs" (fun () -> obs_leg ~n:shape.n ~spans) in
  let bridge = span "bridge" (fun () -> bridge_leg ~n:shape.n ~spans) in
  let prof = span "prof" prof_leg in
  let ns = 1e-9 in
  (* A message's leg cost includes its hop (and bounce) event, so the
     engine share counts only the other events. *)
  let network_s s = s *. network.ns_per_op *. ns in
  let engine_s e s b = Float.max 0. (e -. s -. b) *. engine.ns_per_op *. ns in
  (* Protocol self time per transaction: one checker run of the grid
     less its engine and network shares at a checker run's shape. *)
  let protocol_self_s =
    let g = grid_counts in
    let per total = per_op g total in
    Float.max 0.
      (ns
      *. (grid_cost.ns_per_op
         -. (Float.max 0. (per g.events -. per g.sent -. per g.bounced) *. run_engine.ns_per_op)
         -. (per g.sent *. run_network.ns_per_op)))
  in
  let per_txn_s =
    storage.ns_per_op +. scheduler.ns_per_op +. auditor.ns_per_op +. metrics.ns_per_op
  in
  let model =
    if cluster then
      [
        ("engine", engine_s events sent bounced);
        ("network", network_s sent);
        ("protocol", ops *. protocol_self_s);
        ("per_txn_layers", ops *. per_txn_s *. ns);
        ("trace", per_rep c c.trace_records *. trace.ns_per_op *. ns);
        ("obs", per_rep c c.spans *. (obs.ns_per_op +. bridge.ns_per_op) *. ns);
        ("snapshots", per_rep c c.snapshots *. snapshot_us *. 1e-6);
        ("recovery", per_rep c c.recoveries *. recover_ms *. 1e-3);
        ("report", x.report_json_s);
      ]
    else
      [
        ("engine", engine_s events sent bounced);
        ("network", network_s sent);
        ("protocol", ops *. protocol_self_s);
        ("verdict_merge", ops *. (fold.verdict_ns +. fold.merge_ns) /. Float.max 1. runs *. ns);
        ("report", x.report_json_s);
      ]
  in
  let model_s = List.fold_left (fun acc (_, s) -> acc +. s) 0. model in
  let share bucket =
    match x.profile with
    | Some p -> prof_shares p ~pair_s:(prof.ns_per_op *. ns) bucket
    | None -> (
        (* No profiler on the checker path: the layer model's shares. *)
        match bucket with
        | "engine" -> engine_s events sent bounced /. x.rep_s
        | "network" -> network_s sent /. x.rep_s
        | "protocol" -> ops *. protocol_self_s /. x.rep_s
        | _ -> 0.)
  in
  let kop v = 1000. *. v in
  let metrics =
    [
      ("engine.events_per_op", per_op c c.events);
      ("engine.ns_per_event", engine.ns_per_op);
      ("engine.words_per_event", engine.words_per_op);
      ("engine.prof_share", share "engine");
      ("network.msgs_per_op", per_op c c.sent);
      ("network.bounce_share", float_of_int c.bounced /. float_of_int (Stdlib.max 1 c.sent));
      ("network.ns_per_msg", network.ns_per_op);
      ("network.words_per_msg", network.words_per_op);
      ("network.prof_share", share "network");
      ("protocol.run_us_p50", Timing.quantile 0.5 fold.run_ns *. 1e-3);
      ("protocol.run_us_p99", Timing.quantile 0.99 fold.run_ns *. 1e-3);
      ("protocol.words_per_run", grid_cost.words_per_op);
      ("protocol.ns_per_txn", ff.ns_per_op);
      ("protocol.prof_share", share "protocol");
      ("termination.invocations_per_kop", kop (per_op c c.terminations));
      ("termination.probes_per_kop", kop (per_op c c.probes));
      ("verdict.ns_per_run", fold.verdict_ns /. Float.max 1. runs);
      ("sweep.merge_ns_per_run", fold.merge_ns /. Float.max 1. runs);
      ("sweep.residual_share", 1. -. (fold.fold_s /. sweep_s));
      ("storage.wal_records_per_txn", wal_records);
      ("storage.ns_per_txn", storage.ns_per_op);
      ("storage.words_per_txn", storage.words_per_op);
      ("storage.recover_ms", recover_ms);
      ("recovery.in_doubt_per_epoch", per_rep c c.in_doubt);
      ("recovery.redone_per_epoch", per_rep c c.redone);
      ("locks.ns_per_txn", locks.ns_per_op);
      ("scheduler.ns_per_txn", scheduler.ns_per_op);
      ("auditor.ns_per_txn", auditor.ns_per_op);
      ("auditor.prof_share", share "auditor");
      ("metrics.ns_per_txn", metrics.ns_per_op);
      ("trace.ns_per_record", trace.ns_per_op);
      ("obs.ns_per_span", obs.ns_per_op);
      ("obs.words_per_span", obs.words_per_op);
      ("span_bridge.ns_per_span", bridge.ns_per_op);
      ("metrics.snapshot_us", snapshot_us);
      ("runtime.residual_share", 1. -. (model_s /. x.rep_s));
      ("report.to_json_ms", x.report_json_s *. 1e3);
      ("report.timeline_ms", x.timeline_s *. 1e3);
      ("gc.minor_words_per_op", x.minor_words_per_op);
      ("gc.major_collections_per_kop", x.major_per_kop);
      ("prof.ns_per_enter_leave", prof.ns_per_op);
      ("trace.overhead", (x.traced_rep_s /. x.rep_s) -. 1.);
    ]
  in
  let bases =
    [
      ("base.rep_s_p50_untraced", x.rep_s, "s");
      ("base.rep_s_p50_traced", x.traced_rep_s, "s");
      ("base.model_s", model_s, "s");
      ("base.fold_s", fold.fold_s, "s");
      ("base.sweep_run_s", sweep_s, "s");
      ("base.runner_grid_runs", runs, "run");
      ("base.leg_txns", float_of_int txns, "txn");
      ("base.leg_wal_tids", float_of_int shape.wal_tids, "txn");
    ]
    @ List.map (fun (part, s) -> ("model." ^ part ^ "_s", s, "s")) model
  in
  (metrics, bases)
