module Export = Commit_checker.Export

type config = {
  base : Runtime.config;
  seed : int64;
  epochs : int;
  segment : Vtime.t;
  faults : bool;
}

let default_config ?(base = Runtime.default_config ()) () =
  {
    base;
    seed = 1L;
    epochs = 16;
    segment = Vtime.of_int (200 * Vtime.to_int base.Runtime.t_unit);
    faults = true;
  }

(* One epoch's fault schedule, derived from the soak seed and the epoch
   index alone.  Every draw is made unconditionally — the workload seed
   is the FIRST draw, so a faults-on and a faults-off soak over the same
   soak seed run identical arrival processes and differ only in the
   injected schedule. *)
type plan = {
  workload_seed : int64;
  timeline : Partition.t;
  crashes : (Site_id.t * Vtime.t) list;
  recoveries : (Site_id.t * Vtime.t) list;
  delay : Delay.t;
}

(* splitmix64-style epoch key: O(1) per epoch, independent streams. *)
let epoch_seed seed epoch =
  Int64.add seed (Int64.mul (Int64.of_int (epoch + 1)) 0x9E3779B97F4A7C15L)

let plan config ~epoch =
  let rng = Rng.create (epoch_seed config.seed epoch) in
  let n = config.base.Runtime.n in
  let t_unit = config.base.Runtime.t_unit in
  let seg = Vtime.to_int config.segment in
  let pct p = Vtime.of_int (seg * p / 100) in
  let workload_seed = Rng.next_int64 rng in
  (* Partition cut early in the segment, healed well before the drain. *)
  let cut_site = Rng.int_in rng ~lo:2 ~hi:n in
  let cut_start = Vtime.of_int (Rng.int_in rng ~lo:(seg * 8 / 100) ~hi:(seg * 25 / 100)) in
  let cut_len =
    let cap = Stdlib.max (Vtime.to_int t_unit) (seg * 15 / 100) in
    Vtime.of_int (Rng.int_in rng ~lo:(Vtime.to_int t_unit) ~hi:cap)
  in
  (* Crash-recover window in the middle stretch; always paired with a
     recovery inside the arrival window so the site rejoins under load. *)
  let crash_site = Rng.int_in rng ~lo:1 ~hi:n in
  let down = Vtime.of_int (Rng.int_in rng ~lo:(seg * 50 / 100) ~hi:(seg * 70 / 100)) in
  let outage = Rng.int_in rng ~lo:(seg * 5 / 100) ~hi:(seg * 22 / 100) in
  let up = Vtime.min (Vtime.add down (Vtime.of_int outage)) (pct 92) in
  let delay_kind = Rng.int rng ~bound:3 in
  if not config.faults then
    {
      workload_seed;
      timeline = config.base.Runtime.timeline;
      crashes = [];
      recoveries = [];
      delay = config.base.Runtime.delay;
    }
  else
    let timeline =
      Partition.make
        ~heals_at:(Vtime.add cut_start cut_len)
        ~group2:(Site_id.set_of_ints [ cut_site ])
        ~starts_at:cut_start ~n ()
    in
    let delay =
      match delay_kind with
      | 0 -> Delay.minimal
      | 1 -> Delay.uniform ~t_max:t_unit
      | _ -> Delay.full ~t_max:t_unit
    in
    {
      workload_seed;
      timeline;
      crashes = [ (Site_id.of_int crash_site, down) ];
      recoveries = [ (Site_id.of_int crash_site, up) ];
      delay;
    }

let epoch_config config ~epoch =
  let p = plan config ~epoch in
  {
    config.base with
    Runtime.seed = p.workload_seed;
    timeline = p.timeline;
    crashes = p.crashes;
    recoveries = p.recoveries;
    delay = p.delay;
    duration = config.segment;
  }

type summary = {
  epochs_run : int;
  ticks : int;  (** virtual time simulated across all epochs *)
  offered : int;
  admitted : int;
  committed : int;
  aborted : int;
  torn : int;
  blocked : int;
  settled : int;
  crashes : int;
  recoveries : int;
  cut_phases : int;
  conserved_epochs : int;
      (** epochs where {!Runtime.atomic} held — the incremental
          conservation check *)
  failures : string list;  (** ["epoch=N"] labels of non-atomic epochs *)
  metrics : Metrics.t;
  snapshot_lines : string list;
}

let conserved s = s.conserved_epochs = s.epochs_run && s.torn = 0

(* The per-epoch summary: the unit the ordered merge folds over. *)
let of_report ~epoch (report : Runtime.report) =
  let atomic = Runtime.atomic report in
  let label = Printf.sprintf "epoch=%d" epoch in
  {
    epochs_run = 1;
    ticks = Vtime.to_int report.Runtime.horizon;
    offered = report.offered;
    admitted = report.admitted;
    committed = report.committed;
    aborted = report.aborted;
    torn = report.torn;
    blocked = report.blocked;
    settled = report.settled;
    crashes = List.length report.config.Runtime.crashes;
    recoveries = List.length report.config.Runtime.recoveries;
    cut_phases = Partition.phase_count report.config.Runtime.timeline;
    conserved_epochs = (if atomic then 1 else 0);
    failures = (if atomic then [] else [ label ]);
    metrics = report.metrics;
    snapshot_lines =
      (match report.snapshots with
      | [] -> []
      | snaps ->
          List.map
            (fun snap ->
              Export.to_string
                (Metrics.snapshot_to_json ~run:label report.metrics snap))
            snaps);
  }

(* Ordered and associative; consumes [a]'s metrics pipeline exactly like
   {!Cluster_sweep.merge}. *)
let merge a b =
  Metrics.merge_into a.metrics b.metrics;
  {
    epochs_run = a.epochs_run + b.epochs_run;
    ticks = a.ticks + b.ticks;
    offered = a.offered + b.offered;
    admitted = a.admitted + b.admitted;
    committed = a.committed + b.committed;
    aborted = a.aborted + b.aborted;
    torn = a.torn + b.torn;
    blocked = a.blocked + b.blocked;
    settled = a.settled + b.settled;
    crashes = a.crashes + b.crashes;
    recoveries = a.recoveries + b.recoveries;
    cut_phases = a.cut_phases + b.cut_phases;
    conserved_epochs = a.conserved_epochs + b.conserved_epochs;
    failures = a.failures @ b.failures;
    metrics = a.metrics;
    snapshot_lines =
      (if b.snapshot_lines == [] then a.snapshot_lines
       else a.snapshot_lines @ b.snapshot_lines);
  }

let eval config scratch epoch =
  of_report ~epoch (Runtime.run ~scratch (epoch_config config ~epoch))

let run ?jobs config =
  if config.base.Runtime.n < 2 then
    invalid_arg "Soak.run: need at least two sites";
  if config.epochs < 1 then invalid_arg "Soak.run: epochs must be >= 1";
  if Vtime.to_int config.segment < 10 * Vtime.to_int config.base.Runtime.t_unit
  then invalid_arg "Soak.run: segment must be at least 10T";
  Commit_par.Pool.fold ?jobs ~init:Runtime.make_scratch ~f:(eval config)
    ~merge (List.init config.epochs Fun.id)

let to_json config s =
  Export.Obj
    [
      ("seed", Export.String (Int64.to_string config.seed));
      ("epochs", Export.Int config.epochs);
      ("segment_ticks", Export.Int (Vtime.to_int config.segment));
      ("faults", Export.Bool config.faults);
      ("ticks", Export.Int s.ticks);
      ( "totals",
        Export.Obj
          [
            ("offered", Export.Int s.offered);
            ("admitted", Export.Int s.admitted);
            ("settled", Export.Int s.settled);
            ("committed", Export.Int s.committed);
            ("aborted", Export.Int s.aborted);
            ("torn", Export.Int s.torn);
            ("blocked", Export.Int s.blocked);
          ] );
      ( "fault_plan",
        Export.Obj
          [
            ("crashes", Export.Int s.crashes);
            ("recoveries", Export.Int s.recoveries);
            ("cut_phases", Export.Int s.cut_phases);
          ] );
      ("conserved_epochs", Export.Int s.conserved_epochs);
      ("conserved", Export.Bool (conserved s));
      ("failures", Export.List (List.map (fun l -> Export.String l) s.failures));
      ("metrics", Metrics.to_json s.metrics);
    ]

let pp_summary fmt (config, s) =
  Format.fprintf fmt
    "soak: seed=%Ld epochs=%d segment=%d ticks=%d faults=%b@." config.seed
    s.epochs_run (Vtime.to_int config.segment) s.ticks config.faults;
  Format.fprintf fmt
    "  offered=%d admitted=%d settled=%d committed=%d aborted=%d torn=%d \
     blocked=%d@."
    s.offered s.admitted s.settled s.committed s.aborted s.torn s.blocked;
  Format.fprintf fmt
    "  injected: crashes=%d recoveries=%d cut-phases=%d@." s.crashes
    s.recoveries s.cut_phases;
  Format.fprintf fmt "  conserved: %d/%d epochs%s@." s.conserved_epochs
    s.epochs_run
    (if conserved s then "" else "  ** CONSERVATION FAILURE **");
  List.iter
    (fun label -> Format.fprintf fmt "  not conserved: %s@." label)
    s.failures
