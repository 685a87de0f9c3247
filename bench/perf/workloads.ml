(* The four workloads.  One rep is one unit of work a user of the
   system asks for: a cluster run and its JSON, one soak epoch folded
   into the soak summary, or a checker sweep and its JSON.  Rep [i]
   draws its inputs from seed [S + i] (for the soak, epoch [S + i]).
   Inputs are built by [prepare], outside the timed part; [run] is the
   timed part; [finish] checks the outputs. *)

type size = Full | Smoke

let t_unit = Vtime.of_int 1000

let ticks k = Vtime.of_int (k * Vtime.to_int t_unit)

(* Benchmark-side spans around each layer call; [untraced] costs one
   closure call per layer call. *)
type tracer = { span : 'a. string -> (unit -> 'a) -> 'a }

let untraced = { span = (fun _ f -> f ()) }

type outcome = {
  ops : int;  (** transactions offered, or checker runs *)
  failed : int;
  errors : string list;
  doc : string;  (** the rep's deterministic JSON, when asked for *)
}

(* Work counts summed over the reps a run made; the per-layer legs are
   sized from their per-rep averages. *)
type counts = {
  mutable reps : int;
  mutable ops : int;
  mutable events : int;
  mutable sent : int;
  mutable bounced : int;
  mutable terminations : int;
  mutable probes : int;
  mutable trace_records : int;
  mutable spans : int;
  mutable snapshots : int;
  mutable recoveries : int;
  mutable in_doubt : int;
  mutable redone : int;
  mutable crash_tids : int list;
}

let new_counts () =
  {
    reps = 0;
    ops = 0;
    events = 0;
    sent = 0;
    bounced = 0;
    terminations = 0;
    probes = 0;
    trace_records = 0;
    spans = 0;
    snapshots = 0;
    recoveries = 0;
    in_doubt = 0;
    redone = 0;
    crash_tids = [];
  }

let per_rep c total = float_of_int total /. float_of_int (Stdlib.max 1 c.reps)

let per_op c total = float_of_int total /. float_of_int (Stdlib.max 1 c.ops)

(* What the per-layer legs need to know about the workload. *)
type shape = {
  n : int;
  delay : Delay.t;
  timeline : Partition.t;
  horizon : Vtime.t;
  runtime : Runtime.config option;  (** rep 0's config, cluster paths only *)
  grid : Runner.config list;  (** the checker runs the per-run legs time *)
  wal_tids : int;  (** WAL length, in transactions, the recover leg replays *)
}

type instance = {
  prepare : int -> unit;
  run : tracer -> unit;
  finish : doc:bool -> outcome;
  close : unit -> string list;  (** gates over the whole run *)
  counts : unit -> counts;
  shape : unit -> shape;
  render : unit -> unit;  (** rep 0's output, as the CLI prints it *)
  report_json : unit -> unit;
  timeline : unit -> unit;
  profile : unit -> Prof.report option;
  self_check : unit -> string list;
}

type t = { name : string; create : size -> seed:int -> instance }

let protocol = (module Termination.Transient : Site.S)

let to_buffer pp x =
  let buf = Buffer.create 65536 in
  let fmt = Format.formatter_of_buffer buf in
  pp fmt x;
  Format.pp_print_flush fmt ()

(* The runtime's classification of decision reasons that only the
   termination machinery produces (lib/cluster/runtime.ml keeps it
   private); the checker path counts runs that decided through one. *)
let termination_reasons =
  List.filter (fun r -> r <> "fact1-case1") Termination.fact1_reasons
  @ List.filter (fun r -> r <> "fact2-case1") Termination.fact2_reasons
  @ [
      "transient-5t-commit";
      "collect-abort";
      "w2-expired";
      "ud-yes";
      "ud-xact";
      "w1-timeout";
      "px-chosen-recovery";
    ]

let checker_base ~n =
  { (Runner.default_config ~n ~t_unit ()) with Runner.trace_enabled = false }

(* Counts of a pass over checker configs; probes are counted off the
   wire through the runner's tap, as the runtime counts them. *)
let count_runs grid =
  let c = new_counts () in
  let scratch = Runner.make_scratch () in
  let tap = function
    | Network.Sent { env = { payload = Types.Probe _; _ }; _ } ->
        c.probes <- c.probes + 1
    | Network.Sent _ | Network.Delivered _ | Network.Bounced _
    | Network.Lost _ ->
        ()
  in
  List.iter
    (fun config ->
      let r = Runner.run ~tap ~scratch protocol config in
      c.ops <- c.ops + 1;
      c.events <- c.events + r.Runner.events_run;
      c.sent <- c.sent + r.net_stats.sent;
      c.bounced <- c.bounced + r.net_stats.bounced;
      if
        Array.exists
          (fun s ->
            List.exists
              (fun reason -> List.mem reason termination_reasons)
              s.Runner.reasons)
          r.sites
      then c.terminations <- c.terminations + 1)
    grid;
  c.reps <- 1;
  c

let failure_free_grid ~size ~seed ~n ~delay =
  let runs = match size with Full -> 2000 | Smoke -> 50 in
  List.init runs (fun i ->
      { (checker_base ~n) with Runner.delay; seed = Int64.of_int (seed + i) })

(* Arrivals are evenly spaced ([load] per 100T), so the WAL of a site
   that crashes at [at] holds every transaction offered before it. *)
let offered_before (config : Runtime.config) at =
  let spacing = 100 * Vtime.to_int config.t_unit in
  (Vtime.to_int at * config.load + spacing - 1) / spacing

let add_report c (r : Runtime.report) ~obs =
  c.reps <- c.reps + 1;
  c.ops <- c.ops + r.offered;
  c.events <- c.events + r.events_run;
  c.sent <- c.sent + r.net_stats.sent;
  c.bounced <- c.bounced + r.net_stats.bounced;
  c.terminations <- c.terminations + r.termination_invocations;
  c.probes <- c.probes + r.probes;
  c.trace_records <- c.trace_records + Trace.length r.trace;
  if Obs.enabled obs then
    ignore
      (Obs.fold_closed_spans obs ~from:0 (fun ~name:_ ~cat:_ ~dur:_ ->
           c.spans <- c.spans + 1));
  c.snapshots <- c.snapshots + List.length r.snapshots;
  c.recoveries <- c.recoveries + List.length r.config.recoveries;
  c.in_doubt <- c.in_doubt + Metrics.counter r.metrics "recovery.in_doubt";
  c.redone <- c.redone + Metrics.counter r.metrics "recovery.redone";
  List.iter
    (fun (_, at) -> c.crash_tids <- offered_before r.config at :: c.crash_tids)
    r.config.crashes

let cluster_outcome (r : Runtime.report) ~doc =
  {
    ops = r.offered;
    failed = r.offered - r.committed - r.aborted;
    errors =
      (if Runtime.atomic r then []
       else [ Printf.sprintf "seed %Ld: run not atomic" r.config.seed ]);
    doc;
  }

(* The first rep's JSON is parsed back and its verdict read, so a
   serialiser that emits invalid or wrong output fails the run. *)
let check_json ~what text =
  match Export.of_string text with
  | Error e -> [ Printf.sprintf "%s: invalid JSON (%s)" what e ]
  | Ok json -> (
      match Export.member "atomic" json with
      | None | Some (Export.Bool true) -> []
      | Some _ -> [ Printf.sprintf "%s: reports atomic=false" what ])

(* Render, JSON, timeline and profile legs shared by the two cluster
   paths; all act on rep 0's report. *)
let report_legs first ~obs =
  let report () =
    match !first with
    | Some r -> r
    | None -> invalid_arg "no rep has finished"
  in
  let render () =
    to_buffer
      (fun fmt r ->
        Runtime.pp_report fmt r;
        Runtime.pp_timeline fmt r)
      (report ())
  in
  let report_json () = ignore (Export.to_string (Runtime.to_json (report ()))) in
  let timeline () = to_buffer Runtime.pp_timeline (report ()) in
  let profile () =
    let r = report () in
    (Runtime.run ~obs:(obs ()) { r.config with Runtime.profile = true }).profile
  in
  (report, render, report_json, timeline, profile)

let cluster_shape ~size ~seed ~wal_tids (r : Runtime.report) =
  {
    n = r.config.n;
    delay = r.config.delay;
    timeline = r.config.timeline;
    horizon = r.horizon;
    runtime = Some r.config;
    grid = failure_free_grid ~size ~seed ~n:r.config.n ~delay:r.config.delay;
    wal_tids;
  }

let cluster ~observed size ~seed =
  let duration =
    match (size, observed) with
    | Smoke, _ -> 200
    | Full, false -> 10_000
    | Full, true -> 5_000
  in
  let base =
    {
      (Runtime.default_config ()) with
      Runtime.duration = ticks duration;
      trace_enabled = observed;
      snapshot_every = (if observed then Some (ticks 50) else None);
    }
  in
  let new_obs () = if observed then Obs.create () else Obs.disabled in
  let config = ref base and obs = ref Obs.disabled in
  let last = ref None and first = ref None in
  let counts = new_counts () in
  let prepare i =
    config := { base with Runtime.seed = Int64.of_int (seed + i) };
    obs := new_obs ()
  in
  let run tr =
    let r = tr.span "Runtime.run" (fun () -> Runtime.run ~obs:!obs !config) in
    let json =
      tr.span "Runtime.to_json" (fun () -> Export.to_string (Runtime.to_json r))
    in
    let lines =
      if observed then
        tr.span "Metrics.snapshot_to_json" (fun () ->
            List.map
              (fun s -> Export.to_string (Metrics.snapshot_to_json r.metrics s))
              r.snapshots)
      else []
    in
    last := Some (r, json, lines)
  in
  let finish ~doc =
    let r, json, lines = Option.get !last in
    last := None;
    let parse_errors =
      if !first = None then
        check_json ~what:"cluster JSON" json
        @ List.concat_map (check_json ~what:"snapshot line") lines
      else []
    in
    if !first = None then first := Some r;
    add_report counts r ~obs:!obs;
    let o =
      cluster_outcome r ~doc:(if doc then String.concat "\n" (json :: lines) else "")
    in
    { o with errors = parse_errors @ o.errors }
  in
  let report, render, report_json, timeline, profile = report_legs first ~obs:new_obs in
  {
    prepare;
    run;
    finish;
    close = (fun () -> []);
    counts = (fun () -> counts);
    shape =
      (fun () -> cluster_shape ~size ~seed ~wal_tids:(report ()).offered (report ()));
    render;
    report_json;
    timeline;
    profile;
    self_check = (fun () -> []);
  }

(* Every epoch of a soak derives its own workload and fault plan from
   (soak seed, epoch index), so the epoch index is the rep's seed: rep
   [i] runs epoch [S + i] of the default soak, like every other
   workload's rep [i] runs seed [S + i]. *)
let soak size ~seed =
  let segment = match size with Smoke -> 100 | Full -> 10_000 in
  let cfg = { (Soak.default_config ()) with Soak.epochs = 100; segment = ticks segment } in
  let scratch = Runtime.make_scratch () in
  let epoch = ref seed and config = ref (Soak.epoch_config cfg ~epoch:seed) in
  let acc = ref None and last = ref None and first = ref None in
  let counts = new_counts () in
  let prepare i =
    epoch := seed + i;
    config := Soak.epoch_config cfg ~epoch:!epoch
  in
  let run tr =
    let r = tr.span "Runtime.run" (fun () -> Runtime.run ~scratch !config) in
    let s = tr.span "Soak.of_report" (fun () -> Soak.of_report ~epoch:!epoch r) in
    tr.span "Soak.merge" (fun () ->
        acc := Some (match !acc with None -> s | Some a -> Soak.merge a s));
    last := Some (r, s)
  in
  (* [s] is read before the next rep merges into the accumulator, which
     after the first rep is [s] itself. *)
  let finish ~doc =
    let r, s = Option.get !last in
    last := None;
    if !first = None then first := Some r;
    add_report counts r ~obs:Obs.disabled;
    cluster_outcome r
      ~doc:
        (if doc then Export.to_string (Soak.to_json { cfg with epochs = 1 } s)
         else "")
  in
  let close () =
    match !acc with
    | Some a when not (Soak.conserved a) ->
        [
          Printf.sprintf "soak seed %d: %d of %d epochs conserved, %d torn" seed
            a.conserved_epochs a.epochs_run a.torn;
        ]
    | Some _ | None -> []
  in
  (* The fold the reps do, over a few epochs, against the library's own
     soak loop (Soak.run): the same summary JSON, byte for byte. *)
  let self_check () =
    let c = { cfg with epochs = 3 } in
    let scratch = Runtime.make_scratch () in
    let fold =
      List.fold_left
        (fun acc e ->
          let s =
            Soak.of_report ~epoch:e (Runtime.run ~scratch (Soak.epoch_config c ~epoch:e))
          in
          match acc with None -> Some s | Some a -> Some (Soak.merge a s))
        None [ 0; 1; 2 ]
    in
    let digest s = Digest.to_hex (Digest.string (Export.to_string (Soak.to_json c s))) in
    if String.equal (digest (Option.get fold)) (digest (Soak.run ~jobs:1 c)) then []
    else [ "soak: the outside epoch fold differs from Soak.run" ]
  in
  let report, render, report_json, timeline, profile =
    report_legs first ~obs:(fun () -> Obs.disabled)
  in
  let shape () =
    let tids = List.sort Int.compare counts.crash_tids in
    let wal_tids =
      match tids with
      | [] -> (report ()).offered
      | _ -> List.nth tids (List.length tids / 2)
    in
    cluster_shape ~size ~seed ~wal_tids (report ())
  in
  {
    prepare;
    run;
    finish;
    close;
    counts = (fun () -> counts);
    shape;
    render;
    report_json;
    timeline;
    profile;
    self_check;
  }

let sweep size ~seed =
  let configs ~n grid = Scenario.configs ~base:(checker_base ~n) grid in
  let grid =
    match size with
    | Smoke -> configs ~n:3 (Scenario.default_grid ~n:3 ~t_unit)
    | Full ->
        configs ~n:3 (Scenario.large_grid ~n:3 ~t_unit)
        @ configs ~n:4 (Scenario.large_grid ~n:4 ~t_unit)
  in
  let reseed i =
    let shift = Int64.of_int (seed + i) in
    List.map (fun c -> { c with Runner.seed = Int64.add c.Runner.seed shift }) grid
  in
  let current = ref [] and last = ref None and first = ref None in
  let run tr =
    let s = tr.span "Sweep.run" (fun () -> Sweep.run ~jobs:1 protocol !current) in
    let json =
      tr.span "Export.of_summary" (fun () -> Export.to_string (Export.of_summary s))
    in
    last := Some (s, json)
  in
  let finish ~doc =
    let (s : Sweep.summary), json = Option.get !last in
    last := None;
    let parse_errors =
      if !first = None then
        match Export.of_string json with
        | Ok _ -> []
        | Error e -> [ "sweep JSON: invalid (" ^ e ^ ")" ]
      else []
    in
    if !first = None then first := Some (s, json);
    {
      ops = s.runs;
      failed = s.violations + s.blocked_runs;
      errors =
        parse_errors
        @
        if s.violations + s.blocked_runs = 0 then []
        else
          [
            Printf.sprintf "sweep seed %d: %d violations, %d blocked runs" seed
              s.violations s.blocked_runs;
          ];
      doc = (if doc then json else "");
    }
  in
  let rep0 () =
    match !first with Some f -> f | None -> invalid_arg "no rep has finished"
  in
  let render () =
    let s, _ = rep0 () in
    to_buffer Sweep.pp_summary s
  in
  (* The per-run fold (runner, verdict, per-run summary, ordered merge)
     over rep 0's grid against Sweep.run's JSON for the same grid. *)
  let self_check () =
    let _, json = rep0 () in
    let grid = reseed 0 in
    let scratch = Runner.make_scratch () in
    let fold =
      List.fold_left
        (fun acc config ->
          let v = Verdict.of_result (Runner.run ~scratch protocol config) in
          Sweep.merge ~keep:3 acc (Sweep.of_verdict ~protocol:(Site.name protocol) (config, v)))
        (Sweep.run protocol []) grid
    in
    if String.equal (Export.to_string (Export.of_summary fold)) json then []
    else [ "sweep: the outside per-run fold differs from Sweep.run" ]
  in
  let shape () =
    let grid = reseed 0 in
    (* A mid-grid point stands for the grid's partitions and delays in
       the network leg; a checker run's messages fall in its first 8T,
       where the grid places its cuts. *)
    let mid = List.nth grid (List.length grid / 2) in
    {
      n = mid.n;
      delay = mid.delay;
      timeline = mid.partition;
      horizon = ticks 8;
      runtime = None;
      grid;
      wal_tids = 1;
    }
  in
  {
    prepare = (fun i -> current := reseed i);
    run;
    finish;
    close = (fun () -> []);
    counts = (fun () -> count_runs (reseed 0));
    shape;
    render;
    report_json =
      (fun () ->
        let s, _ = rep0 () in
        ignore (Export.to_string (Export.of_summary s)));
    timeline = render;
    profile = (fun () -> None);
    self_check;
  }

let all =
  [
    { name = "cluster-steady"; create = cluster ~observed:false };
    { name = "cluster-observed"; create = cluster ~observed:true };
    { name = "soak-crash"; create = soak };
    { name = "checker-sweep"; create = sweep };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all
