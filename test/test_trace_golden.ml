(* Golden-output tests for the trace and span layers, plus the cluster's
   text report.

   Each scenario renders observable trace output — [Trace.pp] text,
   Perfetto trace_event JSON, the causality DAG — and compares it
   byte-for-byte against a checked-in golden file captured from the
   eager-string implementation (pre binary-record storage).  The
   binary-backed deferred rendering must reproduce every byte.

   Regenerate with:
     GOLDEN_REGEN=1 GOLDEN_DIR=test/golden dune exec test/test_trace_golden.exe
   from the repository root (only ever against a known-good tree). *)

let check = Alcotest.check

let t_unit = Vtime.of_int 1000

let t mult = mult * 1000

let golden_dir =
  match Sys.getenv_opt "GOLDEN_DIR" with Some d -> d | None -> "golden"

let regen = Sys.getenv_opt "GOLDEN_REGEN" <> None

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let check_golden name render () =
  let path = Filename.concat golden_dir (name ^ ".txt") in
  let actual = render () in
  if regen then write_file path actual
  else
    let expected = read_file path in
    check Alcotest.string name expected actual

(* ------------------------------------------------------------------ *)
(* Scenario builders                                                   *)
(* ------------------------------------------------------------------ *)

let partition ?heals_after ~g2 ~at ~n () =
  let starts_at = Vtime.of_int at in
  Partition.make
    ?heals_at:
      (Option.map (fun h -> Vtime.add starts_at (Vtime.of_int h)) heals_after)
    ~group2:(Site_id.set_of_ints g2) ~starts_at ~n ()

let config ?(n = 3) ?partition:p ?mode ?delay ?(seed = 1L) ?votes ?crashes () =
  let base = Runner.default_config ~n ~t_unit () in
  {
    base with
    Runner.partition = (match p with Some p -> p | None -> Partition.none);
    mode = (match mode with Some m -> m | None -> base.Runner.mode);
    delay = (match delay with Some d -> d | None -> base.Runner.delay);
    seed;
    votes = (match votes with Some v -> v | None -> []);
    crashes = (match crashes with Some c -> c | None -> []);
  }

let trace_of protocol config () =
  let result = Runner.run protocol config in
  Format.asprintf "%a" Trace.pp result.Runner.trace

let full = Delay.full ~t_max:t_unit

let uniform = Delay.uniform ~t_max:t_unit

(* The protocol-level scenarios: every protocol family, every network
   trace path (deliver, bounce, boundary loss, dead-sender suppression,
   dead-destination loss, crash marks), masters and slaves, clean and
   partitioned runs, and a votes-no abort. *)
let runner_scenarios =
  [
    ("2pc-clean", trace_of (module Two_phase) (config ()));
    ( "2pc-pessimistic-cut",
      trace_of
        (module Two_phase)
        (config ~partition:(partition ~g2:[ 3 ] ~at:1500 ~n:3 ())
           ~mode:Network.Pessimistic ~delay:full ()) );
    ( "ext2pc-cut",
      trace_of
        (module Ext_two_phase)
        (config ~partition:(partition ~g2:[ 3 ] ~at:2100 ~n:3 ()) ~delay:full ())
    );
    ( "3pc-partition-heal",
      trace_of
        (module Three_phase)
        (config ~n:5
           ~partition:(partition ~heals_after:(t 3) ~g2:[ 4; 5 ] ~at:2100 ~n:5 ())
           ~delay:full ()) );
    ( "3pc-rules-strict-cut",
      trace_of
        (module Three_phase_rules.Strict)
        (config ~n:4
           ~partition:(partition ~g2:[ 3; 4 ] ~at:2100 ~n:4 ())
           ~delay:uniform ~seed:42L ()) );
    ( "skeen-cut",
      trace_of
        (module Three_phase_skeen)
        (config ~partition:(partition ~g2:[ 3 ] ~at:1500 ~n:3 ()) ~delay:full ())
    );
    ( "quorum-cut",
      trace_of
        (module Quorum)
        (config ~n:4
           ~partition:(partition ~g2:[ 3; 4 ] ~at:2100 ~n:4 ())
           ~delay:full ()) );
    ( "termination-cut",
      trace_of
        (module Termination.Static)
        (config ~n:4
           ~partition:(partition ~g2:[ 3; 4 ] ~at:3050 ~n:4 ())
           ~delay:full ()) );
    ( "termination-transient-heal",
      trace_of
        (module Termination.Transient)
        (config
           ~partition:(partition ~heals_after:3000 ~g2:[ 3 ] ~at:1100 ~n:3 ())
           ~delay:uniform ~seed:42L ()) );
    ( "termination-votes-no",
      trace_of
        (module Termination.Static)
        (config ~partition:(partition ~g2:[ 3 ] ~at:2100 ~n:3 ()) ~delay:full
           ~votes:[ (Site_id.of_int 2, false) ]
           ()) );
    ( "termination-crash",
      trace_of
        (module Termination.Static)
        (config ~n:4
           ~partition:(partition ~g2:[ 4 ] ~at:2100 ~n:4 ())
           ~delay:full
           ~crashes:[ (Site_id.of_int 2, Vtime.of_int 2500) ]
           ()) );
    ( "paxos-master-crash",
      trace_of Paxos_commit.protocol
        (config ~delay:full ~crashes:[ (Site_id.master, Vtime.of_int 1000) ] ())
    );
    ("paxos-f0-clean", trace_of Paxos_commit.protocol_f0 (config ()));
    ( "theorem10-4pc-cut",
      trace_of
        (module Theorem10.Four_phase_termination)
        (config ~partition:(partition ~g2:[ 3 ] ~at:2100 ~n:3 ()) ~delay:full ())
    );
  ]

(* ------------------------------------------------------------------ *)
(* Transaction-manager and cluster traces                              *)
(* ------------------------------------------------------------------ *)

let tm_trace protocol () =
  let module Tm = Commit_db.Tm in
  let module Workload = Commit_db.Workload in
  let w =
    Workload.bank_transfers ~n:3 ~pairs:6 ~balance:1000 ~amount:70
      ~spacing:(Vtime.of_int 6000) ~seed:2024L
  in
  let p =
    Partition.make
      ~group2:(Site_id.set_of_ints [ 3 ])
      ~starts_at:(Vtime.of_int 20200) ~n:3 ()
  in
  let config =
    {
      (Tm.default_config ~protocol ()) with
      Tm.initial = w.Workload.initial;
      partition = p;
      delay = full;
      trace_enabled = true;
    }
  in
  let report = Tm.run config w.Workload.txns in
  Format.asprintf "%a" Trace.pp report.Commit_db.Tm.trace

let cluster_trace ?crashes () =
  let module Cluster = Commit_cluster in
  let cut =
    Partition.make
      ~group2:(Site_id.set_of_ints [ 3 ])
      ~starts_at:(Vtime.of_int (t 20))
      ~heals_at:(Vtime.of_int (t 40))
      ~n:3 ()
  in
  let config =
    {
      (Cluster.Runtime.default_config ()) with
      Cluster.Runtime.duration = Vtime.of_int (t 60);
      drain = Vtime.of_int (t 30);
      load = 40;
      bucket = Vtime.of_int (t 20);
      timeline = cut;
      crashes = (match crashes with Some c -> c | None -> []);
      trace_enabled = true;
    }
  in
  let report = Cluster.Runtime.run config in
  Format.asprintf "%a" Trace.pp report.Commit_cluster.Runtime.trace

(* The CLI's text report: [pp_report] then [pp_timeline] for a run with
   a cut, a crash-recover window and periodic snapshot cuts, so every
   timeline column and the partition marker are pinned. *)
let cluster_report () =
  let module Cluster = Commit_cluster in
  let cut =
    Partition.make
      ~group2:(Site_id.set_of_ints [ 3 ])
      ~starts_at:(Vtime.of_int (t 40))
      ~heals_at:(Vtime.of_int (t 120))
      ~n:3 ()
  in
  let config =
    {
      (Cluster.Runtime.default_config ()) with
      Cluster.Runtime.duration = Vtime.of_int (t 200);
      timeline = cut;
      crashes = [ (Site_id.of_int 2, Vtime.of_int (t 150)) ];
      recoveries = [ (Site_id.of_int 2, Vtime.of_int (t 170)) ];
      snapshot_every = Some (Vtime.of_int (t 50));
    }
  in
  let report = Cluster.Runtime.run config in
  Format.asprintf "%a%a" Cluster.Runtime.pp_report report
    Cluster.Runtime.pp_timeline report

let db_scenarios =
  [
    ("tm-termination-cut", tm_trace (module Termination.Static : Site.S));
    ("tm-2pc-cut", tm_trace (module Two_phase));
    ("cluster-cut", fun () -> cluster_trace ());
    ( "cluster-crash",
      fun () ->
        cluster_trace ~crashes:[ (Site_id.of_int 2, Vtime.of_int (t 30)) ] () );
    ("cluster-report-timeline", cluster_report);
  ]

(* ------------------------------------------------------------------ *)
(* Span exports                                                        *)
(* ------------------------------------------------------------------ *)

let spans_export fmt protocol config () =
  let obs = Obs.create () in
  ignore (Runner.run ~obs protocol config);
  match fmt with
  | `Trace_event -> Obs.to_trace_event_json obs
  | `Causality -> Obs.to_causality_json obs

let cluster_spans fmt () =
  let module Cluster = Commit_cluster in
  let cut =
    Partition.make
      ~group2:(Site_id.set_of_ints [ 3 ])
      ~starts_at:(Vtime.of_int (t 20))
      ~heals_at:(Vtime.of_int (t 40))
      ~n:3 ()
  in
  let config =
    {
      (Cluster.Runtime.default_config ()) with
      Cluster.Runtime.duration = Vtime.of_int (t 50);
      drain = Vtime.of_int (t 30);
      load = 30;
      bucket = Vtime.of_int (t 20);
      timeline = cut;
      trace_enabled = false;
    }
  in
  let obs = Obs.create () in
  ignore (Cluster.Runtime.run ~obs config);
  match fmt with
  | `Trace_event -> Obs.to_trace_event_json obs
  | `Causality -> Obs.to_causality_json obs

let obs_scenarios =
  let cut3pc =
    config ~partition:(partition ~g2:[ 3 ] ~at:1500 ~n:3 ()) ~delay:full ()
  in
  let cut_term =
    config ~partition:(partition ~g2:[ 3 ] ~at:1500 ~n:3 ()) ~delay:uniform ()
  in
  [
    ( "spans-3pc-partition",
      spans_export `Trace_event (module Three_phase) cut3pc );
    ( "causality-3pc-partition",
      spans_export `Causality (module Three_phase) cut3pc );
    ( "spans-termination-partition",
      spans_export `Trace_event (module Termination.Transient) cut_term );
    ( "causality-termination-partition",
      spans_export `Causality (module Termination.Transient) cut_term );
    ("spans-cluster-cut", cluster_spans `Trace_event);
    ("causality-cluster-cut", cluster_spans `Causality);
  ]

let () =
  let cases =
    List.map
      (fun (name, render) ->
        Alcotest.test_case name `Quick (check_golden name render))
      (runner_scenarios @ db_scenarios @ obs_scenarios)
  in
  Alcotest.run "trace-golden" [ ("golden", cases) ]
