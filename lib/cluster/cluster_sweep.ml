module Stats = Commit_checker.Stats
module Export = Commit_checker.Export

type grid = {
  base : Runtime.config;
  seeds : int64 list;
  timelines : (string * Partition.t) list;
  policies : Scheduler.policy list;
  protocols : (string * Site.packed) list;
}

(* Labels are lazy ({!Label.Dynamic}): a clean run never renders its
   label, so a sweep of thousands of runtimes does no sprintf work
   unless something actually fails (or a caller forces them for
   display). *)
let tasks grid =
  let protocols =
    match grid.protocols with
    | [] -> [ (None, grid.base.Runtime.protocol) ]
    | ps -> List.map (fun (name, p) -> (Some name, p)) ps
  in
  List.concat_map
    (fun (timeline_label, timeline) ->
      List.concat_map
        (fun policy ->
          List.concat_map
            (fun (protocol_label, protocol) ->
              List.map
                (fun seed ->
                  let label =
                    Label.Dynamic
                      (fun () ->
                        Printf.sprintf "%s/%s%s/seed=%Ld" timeline_label
                          (Scheduler.policy_name policy)
                          (match protocol_label with
                          | None -> ""
                          | Some s -> "/" ^ s)
                          seed)
                  in
                  ( label,
                    { grid.base with Runtime.timeline; policy; protocol; seed }
                  ))
                grid.seeds)
            protocols)
        grid.policies)
    grid.timelines

type summary = {
  runs : int;
  offered : int;
  admitted : int;
  rejected : int;
  starved : int;
  settled : int;
  committed : int;
  aborted : int;
  torn : int;
  blocked : int;
  termination_invocations : int;
  probes : int;
  atomic_runs : int;
  clean_runs : int;
  failures : string list;
  metrics : Metrics.t;
  snapshot_lines : string list;
}

(* The summary of one run: the unit the merge folds over.  The run's
   own metrics pipeline is adopted wholesale (the run is finished and
   owns it exclusively). *)
let of_report ~label (report : Runtime.report) =
  let atomic = Runtime.atomic report in
  let clean = atomic && report.blocked = 0 in
  {
    runs = 1;
    offered = report.offered;
    admitted = report.admitted;
    rejected = report.rejected;
    starved = report.starved;
    settled = report.settled;
    committed = report.committed;
    aborted = report.aborted;
    torn = report.torn;
    blocked = report.blocked;
    termination_invocations = report.termination_invocations;
    probes = report.probes;
    atomic_runs = (if atomic then 1 else 0);
    clean_runs = (if clean then 1 else 0);
    failures = (if clean then [] else [ Label.force label ]);
    metrics = report.metrics;
    snapshot_lines =
      (match report.snapshots with
      | [] -> []
      | snaps ->
          let run = Label.force label in
          List.map
            (fun snap ->
              Export.to_string
                (Metrics.snapshot_to_json ~run report.metrics snap))
            snaps);
  }

(* Associative; consumes [a]'s metrics pipeline (each partial is owned
   by exactly one domain at a time — see Pool.fold_chunks). *)
let merge ~keep a b =
  Metrics.merge_into a.metrics b.metrics;
  {
    runs = a.runs + b.runs;
    offered = a.offered + b.offered;
    admitted = a.admitted + b.admitted;
    rejected = a.rejected + b.rejected;
    starved = a.starved + b.starved;
    settled = a.settled + b.settled;
    committed = a.committed + b.committed;
    aborted = a.aborted + b.aborted;
    torn = a.torn + b.torn;
    blocked = a.blocked + b.blocked;
    termination_invocations =
      a.termination_invocations + b.termination_invocations;
    probes = a.probes + b.probes;
    atomic_runs = a.atomic_runs + b.atomic_runs;
    clean_runs = a.clean_runs + b.clean_runs;
    failures = Commit_checker.Sweep.cap_append ~keep a.failures b.failures;
    metrics = a.metrics;
    snapshot_lines =
      (if b.snapshot_lines == [] then a.snapshot_lines
       else a.snapshot_lines @ b.snapshot_lines);
  }

let eval scratch (label, config) =
  of_report ~label (Runtime.run ~scratch config)

let run ?jobs grid =
  match tasks grid with
  | [] -> invalid_arg "Cluster_sweep.run: empty grid"
  | tasks ->
      Commit_par.Pool.fold ?jobs ~init:Runtime.make_scratch ~f:eval
        ~merge:(merge ~keep:5) tasks

let clean s = s.clean_runs = s.runs

let to_json s =
  let stats_json name =
    match Metrics.histogram s.metrics name with
    | Some stats -> Export.of_stats stats
    | None -> Export.Null
  in
  Export.Obj
    [
      ("runs", Export.Int s.runs);
      ( "totals",
        Export.Obj
          [
            ("offered", Export.Int s.offered);
            ("admitted", Export.Int s.admitted);
            ("rejected", Export.Int s.rejected);
            ("starved", Export.Int s.starved);
            ("settled", Export.Int s.settled);
            ("committed", Export.Int s.committed);
            ("aborted", Export.Int s.aborted);
            ("torn", Export.Int s.torn);
            ("blocked", Export.Int s.blocked);
            ( "termination_invocations",
              Export.Int s.termination_invocations );
            ("probes", Export.Int s.probes);
          ] );
      ("atomic_runs", Export.Int s.atomic_runs);
      ("clean_runs", Export.Int s.clean_runs);
      ("clean", Export.Bool (clean s));
      ("failures", Export.List (List.map (fun l -> Export.String l) s.failures));
      ("latency_commit", stats_json "latency.commit");
      ("queue_wait", stats_json "wait.queue");
      ("metrics", Metrics.to_json s.metrics);
    ]

let pp_summary fmt s =
  Format.fprintf fmt
    "cluster sweep: runs=%d offered=%d admitted=%d committed=%d aborted=%d \
     torn=%d blocked=%d@."
    s.runs s.offered s.admitted s.committed s.aborted s.torn s.blocked;
  Format.fprintf fmt
    "  rejected=%d starved=%d terminations=%d probes=%d atomic=%d/%d clean=%d/%d@."
    s.rejected s.starved s.termination_invocations s.probes s.atomic_runs
    s.runs s.clean_runs s.runs;
  (match Metrics.histogram s.metrics "latency.commit" with
  | Some stats ->
      Format.fprintf fmt "  commit latency: %a@."
        (Stats.pp_in_t ~unit_t:(Metrics.t_unit s.metrics))
        stats
  | None -> ());
  List.iter
    (fun label -> Format.fprintf fmt "  not clean: %s@." label)
    s.failures
