(* Tests for the streaming-telemetry layer: windowed metric snapshots,
   gauges, the span->histogram bridge, the subsystem profiler, and the
   JSON round-trip machinery behind `tp_sim metrics`. *)

module Cluster = Commit_cluster
module Metrics = Cluster.Metrics
module Runtime = Cluster.Runtime
module Cluster_sweep = Cluster.Cluster_sweep
module Span_bridge = Cluster.Span_bridge
module Lock_manager = Commit_db.Lock_manager
module Tm = Commit_db.Tm
module Workload = Commit_db.Workload

let check = Alcotest.check

let t mult = Vtime.of_int (mult * 1000)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  scan 0

(* A short partitioned run: enough load and a cut/heal to touch every
   instrument (termination path, gauges, all the series). *)
let small_config =
  let base = Runtime.default_config () in
  {
    base with
    Runtime.duration = t 60;
    drain = t 25;
    load = 30;
    timeline =
      Partition.make
        ~group2:(Site_id.set_of_ints [ 3 ])
        ~starts_at:(t 20) ~heals_at:(t 40) ~n:base.Runtime.n ();
  }

(* ------------------------------------------------------------------ *)
(* Windowed snapshots                                                  *)
(* ------------------------------------------------------------------ *)

(* The tentpole property: for ANY window size, replaying the snapshot
   stream into a fresh pipeline rebuilds the end-of-run metrics
   byte-for-byte — counters are exact deltas, series cells are closed
   exactly once, window histogram accumulators merge losslessly. *)
let snapshot_merge_exact =
  QCheck.Test.make ~count:15
    ~name:"snapshot stream merges to end-of-run metrics (any window)"
    QCheck.(int_range 3 90)
    (fun window_t ->
      let config =
        { small_config with Runtime.snapshot_every = Some (t window_t) }
      in
      let report = Runtime.run config in
      let final = report.Runtime.metrics in
      let merged =
        Metrics.create
          ~bucket:(Metrics.bucket_ticks final)
          ~t_unit:(Metrics.t_unit final) ()
      in
      List.iter (Metrics.merge_snapshot merged) report.Runtime.snapshots;
      String.equal
        (Export.to_string (Metrics.to_json merged))
        (Export.to_string (Metrics.to_json final)))

let render_lines (report : Runtime.report) =
  List.map
    (fun snap ->
      Export.to_string (Metrics.snapshot_to_json report.Runtime.metrics snap))
    report.Runtime.snapshots

let test_stream_deterministic () =
  let config = { small_config with Runtime.snapshot_every = Some (t 15) } in
  let a = render_lines (Runtime.run config) in
  let b = render_lines (Runtime.run config) in
  check Alcotest.(list string) "two invocations identical" a b;
  (* 85T horizon / 15T windows: cuts at 15T..75T plus the final one *)
  check Alcotest.int "one record per window plus final" 6 (List.length a);
  let final_lines = List.filter (fun l -> contains l "\"final\":true") a in
  check Alcotest.int "exactly one final cut" 1 (List.length final_lines)

let test_sweep_stream_jobs_invariant () =
  let grid =
    {
      Cluster_sweep.base =
        { small_config with Runtime.snapshot_every = Some (t 20) };
      seeds = [ 1L; 2L; 3L; 4L ];
      timelines = [ ("cut", small_config.Runtime.timeline) ];
      policies = [ Cluster.Scheduler.Partition_aware ];
      protocols = [];
    }
  in
  let lines jobs =
    (Cluster_sweep.run ~jobs grid).Cluster_sweep.snapshot_lines
  in
  let l1 = lines 1 in
  check Alcotest.bool "stream nonempty" true (l1 <> []);
  check Alcotest.bool "lines carry the run label" true
    (List.for_all (fun l -> contains l "\"run\":") l1);
  check Alcotest.(list string) "jobs=2 identical" l1 (lines 2);
  check Alcotest.(list string) "jobs=4 identical" l1 (lines 4)

(* ------------------------------------------------------------------ *)
(* Gauges                                                              *)
(* ------------------------------------------------------------------ *)

let test_gauges () =
  let m = Metrics.create ~t_unit:(t 1) () in
  check Alcotest.int "unset gauge reads 0" 0 (Metrics.gauge m "g");
  Metrics.set_gauge m "g" 5;
  Metrics.set_gauge m "g" 3;
  check Alcotest.int "set replaces" 3 (Metrics.gauge m "g");
  Metrics.set_gauge m "a" 2;
  check
    Alcotest.(list (pair string int))
    "name-sorted listing"
    [ ("a", 2); ("g", 3) ]
    (Metrics.gauges m);
  let m2 = Metrics.create ~t_unit:(t 1) () in
  Metrics.set_gauge m2 "g" 4;
  Metrics.merge_into m m2;
  check Alcotest.int "merge sums gauges" 7 (Metrics.gauge m "g")

let test_runtime_samples_gauges () =
  let report = Runtime.run small_config in
  let m = report.Runtime.metrics in
  check Alcotest.int "all sites alive at horizon" 3
    (Metrics.gauge m "gauge.live_sites");
  check Alcotest.int "partition healed at horizon" 1
    (Metrics.gauge m "gauge.partition_components");
  check Alcotest.bool "in-flight gauge present" true
    (List.mem_assoc "gauge.in_flight" (Metrics.gauges m))

(* ------------------------------------------------------------------ *)
(* Span -> histogram bridge                                            *)
(* ------------------------------------------------------------------ *)

let test_span_bridge () =
  let obs = Obs.create () in
  Obs.span_begin obs ~at:(Vtime.of_int 10) ~site:1 ~tid:1 ~cat:"proto" "phase";
  Obs.span_end obs ~at:(Vtime.of_int 25) ~site:1 ~tid:1;
  Obs.span_begin obs ~at:(Vtime.of_int 30) ~site:2 ~tid:2 ~cat:"proto" "phase";
  Obs.span_end obs ~at:(Vtime.of_int 37) ~site:2 ~tid:2;
  Obs.span_begin obs ~at:(Vtime.of_int 40) ~site:1 ~tid:1 "other";
  Obs.span_end obs ~at:(Vtime.of_int 41) ~site:1 ~tid:1;
  let bridge = Span_bridge.create obs in
  let m = Metrics.create ~t_unit:(t 1) () in
  Span_bridge.flush bridge m;
  (match Metrics.histogram m "span.proto.phase" with
  | None -> Alcotest.fail "span.proto.phase histogram missing"
  | Some s ->
      check Alcotest.int "two proto spans" 2 s.Stats.count;
      check Alcotest.int "min duration exact" 7 s.Stats.min;
      check Alcotest.int "max duration exact" 15 s.Stats.max);
  (match Metrics.histogram m "span.phase.other" with
  | None -> Alcotest.fail "default-category histogram missing"
  | Some s -> check Alcotest.int "one default-cat span" 1 s.Stats.count);
  (* the cursor advances: a second flush with nothing new adds nothing *)
  Span_bridge.flush bridge m;
  match Metrics.histogram m "span.proto.phase" with
  | Some s -> check Alcotest.int "flush is incremental" 2 s.Stats.count
  | None -> Alcotest.fail "histogram vanished"

let test_bridge_in_runtime () =
  let obs = Obs.create () in
  let report = Runtime.run ~obs small_config in
  let spans =
    List.filter
      (fun (name, _) -> String.length name > 5 && String.sub name 0 5 = "span.")
      (List.filter_map
         (fun name ->
           Option.map (fun s -> (name, s)) (Metrics.histogram report.Runtime.metrics name))
         [ "span.txn.txn"; "span.phase.txn"; "span.txn.queued" ])
  in
  (* Exact names depend on the runtime's span vocabulary; the invariant
     is that an obs-enabled run lands SOME span histograms. *)
  let json = Export.to_string (Metrics.to_json report.Runtime.metrics) in
  check Alcotest.bool "span histograms reach the metrics pipeline" true
    (spans <> [] || contains json "\"span.");
  (* and a trace-off run must not: the bridge only exists with obs *)
  let plain = Runtime.run small_config in
  check Alcotest.bool "no span histograms without obs" false
    (contains (Export.to_string (Metrics.to_json plain.Runtime.metrics)) "\"span.")

(* ------------------------------------------------------------------ *)
(* Profiler                                                            *)
(* ------------------------------------------------------------------ *)

let test_prof () =
  let p = Prof.create () in
  Prof.enter p Prof.Network;
  Prof.enter p Prof.Protocol;
  Prof.leave p;
  Prof.leave p;
  Prof.note_entries p Prof.Engine 42;
  let r = Prof.report p in
  check Alcotest.int "five buckets" 5 (List.length r.Prof.rows);
  let row name =
    List.find (fun row -> String.equal row.Prof.row_bucket name) r.Prof.rows
  in
  check Alcotest.int "engine entries overridden" 42 (row "engine").Prof.row_entries;
  check Alcotest.int "network entered once" 1 (row "network").Prof.row_entries;
  check Alcotest.int "protocol entered once" 1 (row "protocol").Prof.row_entries;
  check Alcotest.bool "total is a sum of rows" true
    (r.Prof.total_seconds >= 0.);
  Alcotest.check_raises "unbalanced leave rejected"
    (Invalid_argument "Prof.leave: nothing entered") (fun () ->
      Prof.leave (Prof.create ()))

let test_runtime_profile () =
  let report = Runtime.run { small_config with Runtime.profile = true } in
  (match report.Runtime.profile with
  | None -> Alcotest.fail "profile requested but absent"
  | Some r ->
      check Alcotest.int "five buckets" 5 (List.length r.Prof.rows);
      let entries name =
        (List.find (fun row -> String.equal row.Prof.row_bucket name) r.Prof.rows)
          .Prof.row_entries
      in
      check Alcotest.int "engine entries = events run" report.Runtime.events_run
        (entries "engine");
      check Alcotest.bool "network bracketed" true (entries "network" > 0);
      check Alcotest.bool "protocol bracketed" true (entries "protocol" > 0);
      check Alcotest.bool "auditor bracketed" true (entries "auditor" > 0));
  (* profiling must not perturb the deterministic surface *)
  let plain = Runtime.run small_config in
  check Alcotest.string "JSON identical with profiling on"
    (Export.to_string (Runtime.to_json plain))
    (Export.to_string
       (Runtime.to_json (Runtime.run { small_config with Runtime.profile = true })))

(* ------------------------------------------------------------------ *)
(* Tm / Lock_manager instrumentation                                   *)
(* ------------------------------------------------------------------ *)

let test_wait_depth () =
  let lm = Lock_manager.create () in
  check Alcotest.int "empty table" 0 (Lock_manager.wait_depth lm);
  let acquire tid =
    Lock_manager.acquire lm ~tid ~key:"k" ~mode:Lock_manager.Exclusive
  in
  check Alcotest.bool "first granted" true (acquire 1 = `Granted);
  check Alcotest.bool "second waits" true (acquire 2 = `Waiting);
  check Alcotest.bool "third waits" true (acquire 3 = `Waiting);
  check Alcotest.int "two waiters" 2 (Lock_manager.wait_depth lm);
  ignore (Lock_manager.release_all lm ~tid:1);
  check Alcotest.int "one waiter after grant" 1 (Lock_manager.wait_depth lm)

let test_tm_on_gauge () =
  let w = Workload.hot_spot ~n:3 ~txns:4 ~spacing:(Vtime.of_int 500) in
  let config =
    {
      (Tm.default_config ~protocol:(module Termination.Static) ()) with
      Tm.initial = w.Workload.initial;
    }
  in
  let sampled = ref false and max_depth = ref 0 in
  let (_ : Tm.report) =
    Tm.run
      ~on_gauge:(fun name v ->
        if String.equal name "gauge.lock_waiters" then begin
          sampled := true;
          if v > !max_depth then max_depth := v
        end)
      config w.Workload.txns
  in
  check Alcotest.bool "lock-waiters gauge sampled" true !sampled;
  check Alcotest.bool "hot-spot contention observed" true (!max_depth >= 1)

let test_components_at () =
  let p =
    Partition.make
      ~group2:(Site_id.set_of_ints [ 3 ])
      ~starts_at:(Vtime.of_int 1000) ~heals_at:(Vtime.of_int 2000) ~n:3 ()
  in
  check Alcotest.int "one component before the cut" 1
    (Partition.components_at p ~at:(Vtime.of_int 500));
  check Alcotest.int "two components during" 2
    (Partition.components_at p ~at:(Vtime.of_int 1500));
  check Alcotest.int "one component after heal" 1
    (Partition.components_at p ~at:(Vtime.of_int 2500));
  check Alcotest.int "no partition: one component" 1
    (Partition.components_at Partition.none ~at:Vtime.zero)

(* ------------------------------------------------------------------ *)
(* JSON surface                                                        *)
(* ------------------------------------------------------------------ *)

let test_runtime_json_section () =
  let report = Runtime.run small_config in
  let json = Export.to_string (Runtime.to_json report) in
  check Alcotest.bool "events_run serialised" true
    (contains json "\"runtime\":{\"events_run\":");
  check Alcotest.bool "trace_dropped serialised" true
    (contains json "\"trace_dropped\":");
  check Alcotest.bool "gauges serialised" true (contains json "\"gauges\":")

let test_export_of_string () =
  let doc =
    Export.Obj
      [
        ("a", Export.Int 1);
        ("neg", Export.Int (-7));
        ("b", Export.List [ Export.Null; Export.Bool true; Export.Float 1.5 ]);
        ("s", Export.String "x\"y\n\t\\z\001");
        ("empty", Export.Obj []);
        ("nil", Export.List []);
      ]
  in
  (match Export.of_string (Export.to_string doc) with
  | Ok v ->
      check Alcotest.string "roundtrip" (Export.to_string doc)
        (Export.to_string v)
  | Error e -> Alcotest.fail e);
  (match Export.of_string "{\"a\":1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a truncated object");
  (match Export.of_string "[1,2] junk" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted trailing garbage");
  match Export.of_string "{\"k\":{\"n\":3}}" with
  | Ok v -> (
      match Option.bind (Export.member "k" v) (Export.member "n") with
      | Some (Export.Int 3) -> ()
      | _ -> Alcotest.fail "member lookup failed")
  | Error e -> Alcotest.fail e

let test_snapshot_stream_reparses () =
  let config = { small_config with Runtime.snapshot_every = Some (t 25) } in
  let report = Runtime.run config in
  List.iter
    (fun line ->
      match Export.of_string line with
      | Ok v -> check Alcotest.string "line reparses exactly" line (Export.to_string v)
      | Error e -> Alcotest.fail e)
    (render_lines report);
  let doc = Export.to_string (Runtime.to_json report) in
  match Export.of_string doc with
  | Ok v -> check Alcotest.string "full report reparses" doc (Export.to_string v)
  | Error e -> Alcotest.fail e

let () =
  Alcotest.run "telemetry"
    [
      ( "snapshots",
        [
          QCheck_alcotest.to_alcotest snapshot_merge_exact;
          Alcotest.test_case "stream deterministic" `Quick
            test_stream_deterministic;
          Alcotest.test_case "sweep stream jobs-invariant" `Quick
            test_sweep_stream_jobs_invariant;
        ] );
      ( "gauges",
        [
          Alcotest.test_case "set/read/merge" `Quick test_gauges;
          Alcotest.test_case "runtime samples gauges" `Quick
            test_runtime_samples_gauges;
        ] );
      ( "span-bridge",
        [
          Alcotest.test_case "manual spans" `Quick test_span_bridge;
          Alcotest.test_case "runtime integration" `Quick
            test_bridge_in_runtime;
        ] );
      ( "profiler",
        [
          Alcotest.test_case "flat attribution" `Quick test_prof;
          Alcotest.test_case "runtime wiring" `Quick test_runtime_profile;
        ] );
      ( "db-gauges",
        [
          Alcotest.test_case "lock wait depth" `Quick test_wait_depth;
          Alcotest.test_case "tm on_gauge callback" `Quick test_tm_on_gauge;
          Alcotest.test_case "partition components" `Quick test_components_at;
        ] );
      ( "json",
        [
          Alcotest.test_case "runtime section" `Quick test_runtime_json_section;
          Alcotest.test_case "of_string" `Quick test_export_of_string;
          Alcotest.test_case "snapshot stream reparses" `Quick
            test_snapshot_stream_reparses;
        ] );
    ]
