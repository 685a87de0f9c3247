(* Golden-output tests for the trace and span layers, plus the cluster's
   text report.

   Each scenario renders observable trace output — [Trace.pp] text,
   Perfetto trace_event JSON, the causality DAG — and compares it
   byte-for-byte against a checked-in golden file captured from the
   eager-string implementation (pre binary-record storage).  The
   binary-backed deferred rendering must reproduce every byte.

   Text and spans are two views of one event log, so every trace and
   span scenario also runs "crossed", with the other view flipped: a
   text golden from a run that records spans too, a span golden from a
   run whose text view is the other way round.  The crossed run must
   match the same golden file; it never regenerates it.

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

let check_golden ?(cross = false) name render () =
  let path = Filename.concat golden_dir (name ^ ".txt") in
  let actual = render ~cross () in
  if regen && not cross then write_file path actual
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

(* [~cross] records spans into the same run's log. *)
let recorder ~cross = if cross then Obs.create () else Obs.disabled

let trace_of protocol config ~cross () =
  let result = Runner.run ~obs:(recorder ~cross) protocol config in
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
        (module Termination.Four_phase)
        (config ~partition:(partition ~g2:[ 3 ] ~at:2100 ~n:3 ()) ~delay:full ())
    );
  ]

(* ------------------------------------------------------------------ *)
(* Transaction-manager and cluster traces                              *)
(* ------------------------------------------------------------------ *)

let tm_trace protocol ~cross () =
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
  let report = Tm.run ~obs:(recorder ~cross) config w.Workload.txns in
  Format.asprintf "%a" Trace.pp report.Commit_db.Tm.trace

(* Four writers of one hot key, with site3 cut off from 1.5T to 9T:
   lock waits, grants on release and the q-watchdog all show up. *)
let tm_hot_spot ?obs ~text () =
  let module Tm = Commit_db.Tm in
  let module Workload = Commit_db.Workload in
  let w = Workload.hot_spot ~n:3 ~txns:4 ~spacing:(Vtime.of_int 500) in
  let config =
    {
      (Tm.default_config ~protocol:(module Termination.Transient) ()) with
      Tm.initial = w.Workload.initial;
      partition = partition ~heals_after:7500 ~g2:[ 3 ] ~at:1500 ~n:3 ();
      delay = full;
      trace_enabled = text;
    }
  in
  Tm.run ?obs config w.Workload.txns

let tm_hot_spot_trace ~cross () =
  Format.asprintf "%a" Trace.pp
    (tm_hot_spot ~obs:(recorder ~cross) ~text:true ()).Commit_db.Tm.trace

(* The golden run keeps its text view on; [~cross] turns it off. *)
let tm_hot_spot_spans ~cross () =
  let obs = Obs.create () in
  ignore (tm_hot_spot ~obs ~text:(not cross) ());
  Obs.to_trace_event_json obs

let cluster_trace ?crashes ~cross () =
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
  let report = Cluster.Runtime.run ~obs:(recorder ~cross) config in
  Format.asprintf "%a" Trace.pp report.Commit_cluster.Runtime.trace

(* The CLI's text report: [pp_report] then [pp_timeline] for a run with
   a cut, a crash-recover window and periodic snapshot cuts, so every
   timeline column and the partition marker are pinned. *)
let cluster_report ~cross:_ () =
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

(* Four-phase commit's outcomes over the checker grids, reason tags left
   out: one row per run of the n=3 static grid (each site's decision,
   decision time and final state, then the message counts), and the MD5
   of the same rows over the n=4 static and n=3 transient grids. *)
let four_phase_grid ~cross:_ () =
  let grid ?heals_after ~n () =
    let base =
      { (Runner.default_config ~n ~t_unit ()) with Runner.trace_enabled = false }
    in
    let grid = Scenario.default_grid ~n ~t_unit in
    Scenario.configs ~base
      (match heals_after with
      | None -> grid
      | Some heals_after -> { grid with Scenario.heals_after })
  in
  let row config =
    let r = Runner.run (module Termination.Four_phase) config in
    let site (s : Runner.site_result) =
      Printf.sprintf " | %d %s@%s %s" (Site_id.to_int s.site)
        (match s.decision with
        | Some Types.Commit -> "commit"
        | Some Types.Abort -> "abort"
        | None -> "none")
        (match s.decided_at with
        | Some at -> string_of_int (Vtime.to_int at)
        | None -> "-")
        s.final_state
    in
    let stats = r.Runner.net_stats in
    Printf.sprintf "%s%s | sent=%d delivered=%d bounced=%d\n"
      (Scenario.config_id config)
      (String.concat "" (Array.to_list (Array.map site r.Runner.sites)))
      stats.Network.sent stats.delivered stats.bounced
  in
  let md5 label configs =
    Printf.sprintf "md5 %s (%d runs): %s\n" label (List.length configs)
      (Digest.to_hex (Digest.string (String.concat "" (List.map row configs))))
  in
  String.concat "" (List.map row (grid ~n:3 ()))
  ^ md5 "static n=4" (grid ~n:4 ())
  ^ md5 "transient n=3"
      (grid ~n:3
         ~heals_after:
           (None :: List.map (fun m -> Some (Vtime.of_int (t m))) [ 1; 3; 6 ])
         ())

let db_scenarios =
  [
    ("tm-termination-cut", tm_trace (module Termination.Static : Site.S));
    ("tm-2pc-cut", tm_trace (module Two_phase));
    ("tm-hot-spot-cut", tm_hot_spot_trace);
    ("cluster-cut", fun ~cross () -> cluster_trace ~cross ());
    ( "cluster-crash",
      fun ~cross () ->
        cluster_trace ~crashes:[ (Site_id.of_int 2, Vtime.of_int (t 30)) ] ~cross
          () );
  ]

(* ------------------------------------------------------------------ *)
(* Span exports                                                        *)
(* ------------------------------------------------------------------ *)

(* The runner's span goldens were recorded with the text view on (the
   default config); [~cross] turns it off. *)
let spans_export fmt protocol config ~cross () =
  let obs = Obs.create () in
  ignore
    (Runner.run ~obs protocol
       { config with Runner.trace_enabled = not cross });
  match fmt with
  | `Trace_event -> Obs.to_trace_event_json obs
  | `Causality -> Obs.to_causality_json obs

(* The cluster's span goldens were recorded with the text view off;
   [~cross] turns it on. *)
let cluster_spans fmt ~cross () =
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
      trace_enabled = cross;
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
    ("spans-tm-hot-spot", tm_hot_spot_spans);
    ("causality-cluster-cut", cluster_spans `Causality);
  ]

let () =
  let crossed = runner_scenarios @ db_scenarios @ obs_scenarios in
  let cases ~cross scenarios =
    List.map
      (fun (name, render) ->
        Alcotest.test_case name `Quick (check_golden ~cross name render))
      scenarios
  in
  Alcotest.run "trace-golden"
    [
      ( "golden",
        cases ~cross:false
          (runner_scenarios @ db_scenarios
          @ [
              ("cluster-report-timeline", cluster_report);
              ("4pc-grid", four_phase_grid);
            ]
          @ obs_scenarios) );
      ("cross-view", cases ~cross:true crossed);
    ]
