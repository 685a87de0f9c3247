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
    ("2pc-clean", trace_of Fsa_actor.two_phase (config ()));
    ( "2pc-pessimistic-cut",
      trace_of
        Fsa_actor.two_phase
        (config ~partition:(partition ~g2:[ 3 ] ~at:1500 ~n:3 ())
           ~mode:Network.Pessimistic ~delay:full ()) );
    ( "ext2pc-cut",
      trace_of
        Fsa_actor.ext_two_phase
        (config ~partition:(partition ~g2:[ 3 ] ~at:2100 ~n:3 ()) ~delay:full ())
    );
    ( "3pc-partition-heal",
      trace_of
        Fsa_actor.three_phase
        (config ~n:5
           ~partition:(partition ~heals_after:(t 3) ~g2:[ 4; 5 ] ~at:2100 ~n:5 ())
           ~delay:full ()) );
    ( "3pc-rules-strict-cut",
      trace_of
        Fsa_actor.three_phase_rules_strict
        (config ~n:4
           ~partition:(partition ~g2:[ 3; 4 ] ~at:2100 ~n:4 ())
           ~delay:uniform ~seed:42L ()) );
    ( "skeen-cut",
      trace_of
        Inquiry.skeen
        (config ~partition:(partition ~g2:[ 3 ] ~at:1500 ~n:3 ()) ~delay:full ())
    );
    ( "quorum-cut",
      trace_of
        Inquiry.quorum
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

(* Outcome pins over the checker grids, reason tags left out: one row
   per run (each site's decision, decision time and final state, then
   the message counts), or the MD5 of a whole grid's rows. *)
let untraced ~n =
  { (Runner.default_config ~n ~t_unit ()) with Runner.trace_enabled = false }

let grid_configs ?(base = fun b -> b) ?heals_after ?votes ~n () =
  let base = base (untraced ~n) in
  let grid = Scenario.default_grid ~n ~t_unit in
  let grid =
    match heals_after with
    | None -> grid
    | Some heals_after -> { grid with Scenario.heals_after }
  in
  let grid =
    match votes with None -> grid | Some votes -> { grid with Scenario.votes }
  in
  Scenario.configs ~base grid

let transient_heals =
  None :: List.map (fun m -> Some (Vtime.of_int (t m))) [ 1; 3; 6 ]

let outcome_row protocol config =
  let r = Runner.run protocol config in
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

let outcome_md5 protocol label configs =
  Printf.sprintf "md5 %s (%d runs): %s\n" label (List.length configs)
    (Digest.to_hex
       (Digest.string
          (String.concat "" (List.map (outcome_row protocol) configs))))

(* Four-phase commit: every n=3 static run, and the n=4 static and n=3
   transient grids as MD5s. *)
let four_phase_grid ~cross:_ () =
  let protocol = (module Termination.Four_phase : Site.S) in
  String.concat "" (List.map (outcome_row protocol) (grid_configs ~n:3 ()))
  ^ outcome_md5 protocol "static n=4" (grid_configs ~n:4 ())
  ^ outcome_md5 protocol "transient n=3"
      (grid_configs ~n:3 ~heals_after:transient_heals ())

(* One protocol's outcome pin, looked up by its registry name: every
   n=3 static run, then MD5s over the other static sizes, heals, no
   votes, master crashes, lost messages (pessimistic mode) and multiple
   partitionings. *)
let pin_grid name =
  let protocol =
    match Registry.find name with
    | Some e -> e.Registry.protocol
    | None -> invalid_arg ("pin_grid: no protocol " ^ name)
  in
  let md5 = outcome_md5 protocol in
  let site = Site_id.of_int in
  Printf.sprintf "# %s\n" name
  ^ String.concat "" (List.map (outcome_row protocol) (grid_configs ~n:3 ()))
  ^ md5 "static n=2" (grid_configs ~n:2 ())
  ^ md5 "static n=4" (grid_configs ~n:4 ())
  ^ md5 "static n=5" (grid_configs ~n:5 ())
  ^ md5 "transient n=3" (grid_configs ~n:3 ~heals_after:transient_heals ())
  ^ md5 "votes-no n=3"
      (grid_configs ~n:3 ~votes:[ [ (site 2, false) ]; [ (site 3, false) ] ] ())
  ^ md5 "master-crash n=3"
      (Scenario.configs ~base:(untraced ~n:3)
         (Scenario.master_crash_grid ~t_unit))
  ^ md5 "pessimistic n=4"
      (grid_configs
         ~base:(fun b -> { b with Runner.mode = Network.Pessimistic })
         ~n:4 ())
  ^ md5 "multiple partitioning n=4"
      (Scenario.multi_configs ~base:(untraced ~n:4)
         ~starts:(Scenario.instants ~t_unit ~until_mult:8 ~per_t:2)
         ~delays:[ Delay.minimal; full; uniform ]
         ~seeds:[ 1L; 42L ])

(* The five protocols that are an FSA plus a timeout/UD assignment. *)
let fsa_protocols_grid ~cross:_ () =
  String.concat ""
    (List.map pin_grid
       [ "2pc"; "ext2pc"; "3pc"; "3pc+rules"; "3pc+rules-strict" ])

(* The two protocols that terminate by polling every site for its
   phase: Skeen's cooperative termination and quorum commit. *)
let inquiry_grid ~cross:_ () =
  String.concat "" (List.map pin_grid [ "3pc-skeen"; "quorum" ])

(* Every registered protocol through [Sweep.run] itself, as the MD5 of
   its exported summary: the large grids, master crashes, no votes with
   heals, lost messages (pessimistic mode) and multiple partitionings.
   The pins above call [Runner.run]; this one pins what the sweep
   folds, counterexamples included. *)
let sweep_grid ~cross:_ () =
  let site = Site_id.of_int in
  let large n =
    Scenario.configs ~base:(untraced ~n) (Scenario.large_grid ~n ~t_unit)
  in
  let grids =
    [
      ("large n=3", large 3);
      ("large n=4", large 4);
      ( "master-crash n=3",
        Scenario.configs ~base:(untraced ~n:3)
          (Scenario.master_crash_grid ~t_unit) );
      ( "votes-no heals n=4",
        grid_configs ~n:4 ~heals_after:transient_heals
          ~votes:[ [ (site 2, false) ]; [ (site 4, false) ] ]
          () );
      ( "pessimistic n=4",
        grid_configs
          ~base:(fun b -> { b with Runner.mode = Network.Pessimistic })
          ~n:4 () );
      ( "multiple partitioning n=4",
        Scenario.multi_configs ~base:(untraced ~n:4)
          ~starts:(Scenario.instants ~t_unit ~until_mult:8 ~per_t:2)
          ~delays:[ Delay.minimal; full; uniform ]
          ~seeds:[ 1L; 42L ] );
    ]
  in
  let pin (e : Registry.entry) =
    Printf.sprintf "# %s\n" e.name
    ^ String.concat ""
        (List.map
           (fun (label, configs) ->
             let json =
               Export.to_string
                 (Export.of_summary (Sweep.run e.protocol configs))
             in
             Printf.sprintf "md5 %s (%d runs): %s\n" label
               (List.length configs)
               (Digest.to_hex (Digest.string json)))
           grids)
  in
  String.concat "" (List.map pin Registry.all)

let db_scenarios =
  [
    ("tm-termination-cut", tm_trace (module Termination.Static : Site.S));
    ("tm-2pc-cut", tm_trace Fsa_actor.two_phase);
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
      spans_export `Trace_event Fsa_actor.three_phase cut3pc );
    ( "causality-3pc-partition",
      spans_export `Causality Fsa_actor.three_phase cut3pc );
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
              ("fsa-protocols-grid", fsa_protocols_grid);
              ("inquiry-grid", inquiry_grid);
              ("sweep-grid", sweep_grid);
            ]
          @ obs_scenarios) );
      ("cross-view", cases ~cross:true crossed);
    ]
