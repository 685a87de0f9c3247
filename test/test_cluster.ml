(* Tests for the long-running cluster runtime (lib/cluster). *)

module Cluster = Commit_cluster
module Scheduler = Cluster.Scheduler
module Auditor = Cluster.Auditor
module Metrics = Cluster.Metrics
module Runtime = Cluster.Runtime

let check = Alcotest.check

let site = Site_id.of_int

let t mult = Vtime.of_int (mult * 1000)

(* ------------------------------------------------------------------ *)
(* Scheduler                                                           *)
(* ------------------------------------------------------------------ *)

let test_scheduler_window () =
  let s = Scheduler.create ~queue_limit:2 ~window:2 ~n:3 () in
  let timeline = Partition.none and now = Vtime.zero in
  let admit label =
    match Scheduler.submit s ~timeline ~now label with
    | `Admit _ -> `Admit
    | `Enqueued -> `Enqueued
    | `Rejected -> `Rejected
  in
  check Alcotest.bool "first admitted" true (admit "a" = `Admit);
  check Alcotest.bool "second admitted" true (admit "b" = `Admit);
  check Alcotest.bool "third queued" true (admit "c" = `Enqueued);
  check Alcotest.bool "fourth queued" true (admit "d" = `Enqueued);
  check Alcotest.bool "fifth rejected" true (admit "e" = `Rejected);
  check Alcotest.int "in flight" 2 (Scheduler.in_flight s);
  check Alcotest.int "queued" 2 (Scheduler.queued s);
  check Alcotest.int "rejected" 1 (Scheduler.rejected s);
  (* nothing pops while the window is full *)
  check Alcotest.bool "no pop" true (Scheduler.next s ~timeline ~now () = None);
  Scheduler.complete s;
  (match Scheduler.next s ~timeline ~now () with
  | Some ("c", _) -> ()
  | Some _ -> Alcotest.fail "FIFO order violated"
  | None -> Alcotest.fail "slot free but nothing popped");
  check Alcotest.int "admitted total" 3 (Scheduler.admitted s)

let test_scheduler_policies () =
  let timeline =
    Partition.make
      ~group2:(Site_id.set_of_ints [ 3; 4 ])
      ~starts_at:(t 1) ~heals_at:(t 2) ~n:4 ()
  in
  let masters policy ~now rounds =
    let s = Scheduler.create ~policy ~window:1000 ~n:4 () in
    List.init rounds (fun _ ->
        match Scheduler.submit s ~timeline ~now () with
        | `Admit m -> m
        | `Enqueued | `Rejected -> Alcotest.fail "expected admission")
  in
  check Alcotest.bool "fixed always master" true
    (List.for_all Site_id.is_master
       (masters Scheduler.Fixed_master ~now:Vtime.zero 8));
  let rr = masters Scheduler.Round_robin ~now:Vtime.zero 8 in
  check Alcotest.int "round-robin covers all sites" 4
    (List.length (List.sort_uniq compare rr));
  (* partition-aware while the cut is up: only G1 coordinators *)
  let aware = masters Scheduler.Partition_aware ~now:(t 1) 8 in
  check Alcotest.bool "aware avoids G2" true
    (List.for_all
       (fun m -> Site_id.Set.mem m (Partition.group1 timeline ~n:4))
       aware);
  check Alcotest.int "aware still rotates within G1" 2
    (List.length (List.sort_uniq compare aware));
  (* after the heal it rotates over everybody again *)
  let healed = masters Scheduler.Partition_aware ~now:(t 3) 8 in
  check Alcotest.int "healed rotation covers all" 4
    (List.length (List.sort_uniq compare healed))

let test_scheduler_pause () =
  let timeline =
    Partition.make
      ~group2:(Site_id.set_of_ints [ 3 ])
      ~starts_at:(t 1) ~heals_at:(t 2) ~n:3 ()
  in
  let s = Scheduler.create ~pause_during_cut:true ~window:4 ~n:3 () in
  (match Scheduler.submit s ~timeline ~now:(t 1) () with
  | `Enqueued -> ()
  | `Admit _ | `Rejected -> Alcotest.fail "paused scheduler must enqueue");
  check Alcotest.bool "still paused" true
    (Scheduler.next s ~timeline ~now:(t 1) () = None);
  check Alcotest.bool "drains after heal" true
    (Scheduler.next s ~timeline ~now:(t 2) () <> None)

(* ------------------------------------------------------------------ *)
(* Auditor                                                             *)
(* ------------------------------------------------------------------ *)

let contributions = [ (site 1, 975); (site 2, 1025) ]

let test_auditor_commit_abort () =
  let a = Auditor.create ~n:3 () in
  Auditor.begin_txn a ~tid:1 ~contributions;
  Auditor.begin_txn a ~tid:2 ~contributions;
  check Alcotest.int "open" 2 (Auditor.open_txns a);
  List.iter (fun s -> Auditor.record a ~tid:1 ~site:(site s) Types.Commit) [ 1; 2; 3 ];
  List.iter (fun s -> Auditor.record a ~tid:2 ~site:(site s) Types.Abort) [ 1; 2; 3 ];
  check Alcotest.int "settled" 2 (Auditor.settled a);
  check Alcotest.int "open after settle" 0 (Auditor.open_txns a);
  check Alcotest.int "applied" 2000 (Auditor.applied_total a);
  check Alcotest.int "atomic expected" 2000 (Auditor.atomic_expected_total a);
  check Alcotest.bool "clean" true (Auditor.check a = Ok ())

let test_auditor_torn () =
  let a = Auditor.create ~n:3 () in
  Auditor.begin_txn a ~tid:7 ~contributions;
  Auditor.record a ~tid:7 ~site:(site 1) Types.Commit;
  Auditor.record a ~tid:7 ~site:(site 2) Types.Abort;
  Auditor.record a ~tid:7 ~site:(site 3) Types.Abort;
  check Alcotest.int "one violation" 1 (Auditor.agreement_violations a);
  check (Alcotest.list Alcotest.int) "torn tid recorded" [ 7 ]
    (Auditor.torn_tids a);
  check Alcotest.int "partial deposit counted as breach" 1
    (Auditor.conservation_breaches a);
  check Alcotest.bool "check fails" true (Auditor.check a <> Ok ());
  (* duplicate identical decision is idempotent; a flip is an error *)
  Auditor.record a ~tid:7 ~site:(site 1) Types.Commit;
  let raised =
    try
      Auditor.record a ~tid:7 ~site:(site 1) Types.Abort;
      false
    with Invalid_argument _ -> true
  in
  check Alcotest.bool "decision flip raises" true raised

(* An auditor that keeps every entry: [Auditor]'s settle rules restated
   over plain lists, for the retiring one to be compared with. *)
module Keeping = struct
  type entry = {
    contributions : (Site_id.t * int) list;
    mutable decisions : (Site_id.t * Types.decision) list;
    mutable settled : bool;
  }

  type t = {
    n : int;
    mutable entries : (int * entry) list;  (* newest first *)
    mutable dead : Site_id.t list;
    mutable torn : int list;
    mutable breaches : int;
    mutable applied : int;
    mutable expected : int;
  }

  let create n =
    { n; entries = []; dead = []; torn = []; breaches = 0; applied = 0; expected = 0 }

  let begin_txn t ~tid ~contributions =
    t.entries <- (tid, { contributions; decisions = []; settled = false }) :: t.entries

  let contribution e site = Option.value (List.assoc_opt site e.contributions) ~default:0

  let settle t tid e =
    e.settled <- true;
    let full = List.fold_left (fun acc (_, c) -> acc + c) 0 e.contributions in
    match List.sort_uniq compare (List.map snd e.decisions) with
    | [ Types.Commit ] -> t.expected <- t.expected + full
    | [ Types.Abort ] -> ()
    | _ ->
        t.torn <- tid :: t.torn;
        let here =
          List.fold_left
            (fun acc (s, d) -> if d = Types.Commit then acc + contribution e s else acc)
            0 e.decisions
        in
        if here <> 0 && here <> full then t.breaches <- t.breaches + 1

  let complete t e =
    List.for_all
      (fun s -> List.mem s t.dead || List.mem_assoc s e.decisions)
      (Site_id.all ~n:t.n)

  let decided t ~tid site = List.mem_assoc site (List.assoc tid t.entries).decisions

  let record t ~tid ~site d =
    let e = List.assoc tid t.entries in
    e.decisions <- (site, d) :: e.decisions;
    if d = Types.Commit then t.applied <- t.applied + contribution e site;
    if (not e.settled) && complete t e then settle t tid e

  let mark_dead t site =
    if not (List.mem site t.dead) then begin
      t.dead <- site :: t.dead;
      List.iter
        (fun (tid, e) ->
          if (not e.settled) && e.decisions <> [] && complete t e then settle t tid e)
        t.entries
    end

  let mark_recovered t site = t.dead <- List.filter (fun s -> s <> site) t.dead

  let settled t = List.length (List.filter (fun (_, e) -> e.settled) t.entries)

  let to_json t =
    let torn = List.sort Int.compare t.torn in
    Export.Obj
      [
        ("settled", Export.Int (settled t));
        ("open", Export.Int (List.length t.entries - settled t));
        ("agreement_violations", Export.Int (List.length torn));
        ("conservation_breaches", Export.Int t.breaches);
        ("torn_tids", Export.List (List.map (fun i -> Export.Int i) torn));
        ("applied_total", Export.Int t.applied);
        ("atomic_expected_total", Export.Int t.expected);
      ]

  let check t =
    match (t.torn, t.breaches) with
    | [], 0 -> Ok ()
    | [], b -> Error (Printf.sprintf "%d conservation breach(es)" b)
    | torn, b ->
        Error
          (Printf.sprintf "%d torn transaction(s) (first: t%d), %d conservation breach(es)"
             (List.length torn) (List.fold_left min max_int torn) b)
end

(* Steps the runtime can produce: transfers begin, each site decides a
   transaction at most once and only while it is up, and sites crash
   and recover.  A retiring auditor drops entries every site has
   decided alike; nothing it reports may differ from a keeping one's. *)
let auditor_retirement_property =
  QCheck.Test.make ~count:500
    ~name:"a retiring auditor reports what a keeping one does"
    (QCheck.make
       ~print:(fun l -> string_of_int (List.length l))
       QCheck.Gen.(list_size (int_bound 80) (quad (int_bound 9) nat nat nat)))
    (fun steps ->
      let n = 3 in
      let a = Auditor.create ~n () and k = Keeping.create n in
      let begun = ref 0 and down = Array.make n false in
      let step (kind, x, y, z) =
        let s = site (1 + (y mod n)) in
        match kind with
        | 0 | 1 ->
            incr begun;
            let contributions =
              [ (site (1 + (x mod n)), 975); (site (1 + ((x + 1) mod n)), 1025) ]
            in
            Auditor.begin_txn a ~tid:!begun ~contributions;
            Keeping.begin_txn k ~tid:!begun ~contributions
        | 8 ->
            if not down.(y mod n) then begin
              down.(y mod n) <- true;
              Auditor.mark_dead a ~site:s;
              Keeping.mark_dead k s
            end
        | 9 ->
            if down.(y mod n) then begin
              down.(y mod n) <- false;
              Auditor.mark_recovered a ~site:s;
              Keeping.mark_recovered k s
            end
        | _ ->
            let tid = 1 + (x mod max 1 !begun) in
            if !begun > 0 && (not down.(y mod n)) && not (Keeping.decided k ~tid s)
            then begin
              let d = if z mod 5 = 0 then Types.Abort else Types.Commit in
              Auditor.record a ~tid ~site:s d;
              Keeping.record k ~tid ~site:s d
            end
      in
      List.for_all
        (fun st ->
          step st;
          Export.to_string (Auditor.to_json a) = Export.to_string (Keeping.to_json k)
          && Auditor.check a = Keeping.check k)
        steps)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_metrics_basics () =
  let m = Metrics.create ~bucket:(t 10) ~t_unit:(t 1) () in
  Metrics.incr m "x";
  Metrics.add m "x" 4;
  check Alcotest.int "counter" 5 (Metrics.counter m "x");
  check Alcotest.int "missing counter" 0 (Metrics.counter m "nope");
  Metrics.mark m ~at:(t 5) "commits";
  Metrics.mark m ~at:(t 5) "commits";
  Metrics.mark m ~at:(t 15) "commits";
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "series buckets"
    [ (0, 2); (1, 1) ]
    (Metrics.series m "commits");
  Metrics.observe m "lat" 100;
  Metrics.observe m "lat" 300;
  (match Metrics.histogram m "lat" with
  | Some s ->
      check Alcotest.int "histogram count" 2 s.Stats.count;
      check Alcotest.int "histogram min" 100 s.Stats.min
  | None -> Alcotest.fail "histogram missing");
  (* deterministic JSON: keys sorted, shape stable *)
  let json = Format.asprintf "%a" Export.pp (Metrics.to_json m) in
  let json' = Format.asprintf "%a" Export.pp (Metrics.to_json m) in
  check Alcotest.string "json stable" json json'

(* ------------------------------------------------------------------ *)
(* Runtime                                                             *)
(* ------------------------------------------------------------------ *)

let timeline =
  Partition.make
    ~group2:(Site_id.set_of_ints [ 3 ])
    ~starts_at:(t 40) ~heals_at:(t 120) ~n:3 ()

let config protocol =
  { (Runtime.default_config ~protocol ()) with Runtime.timeline }

let test_runtime_failure_free () =
  let report =
    Runtime.run
      { (Runtime.default_config ()) with Runtime.timeline = Partition.none }
  in
  check Alcotest.int "everything offered admitted" report.Runtime.offered
    report.Runtime.admitted;
  check Alcotest.int "everything commits" report.Runtime.admitted
    report.Runtime.committed;
  check Alcotest.int "nothing blocked" 0 report.Runtime.blocked;
  check Alcotest.int "no termination work" 0
    report.Runtime.termination_invocations;
  check Alcotest.bool "atomic" true (Runtime.atomic report);
  check Alcotest.int "money matches the ledger"
    (Auditor.atomic_expected_total report.Runtime.auditor)
    report.Runtime.disk_total

let test_runtime_termination_under_cut () =
  let report = Runtime.run (config (module Termination.Transient : Site.S)) in
  check Alcotest.bool "some transactions committed" true
    (report.Runtime.committed > 0);
  check Alcotest.bool "the cut forced termination work" true
    (report.Runtime.termination_invocations > 0);
  check Alcotest.int "nothing blocked" 0 report.Runtime.blocked;
  check Alcotest.int "nothing torn" 0 report.Runtime.torn;
  check Alcotest.int "everything settled" report.Runtime.admitted
    report.Runtime.settled;
  check Alcotest.bool "atomic through the partition" true
    (Runtime.atomic report)

(* Four-phase commit decides through the three-phase termination tags
   from m on, so the runtime counts its termination work like
   three-phase termination's on the same cut. *)
let test_runtime_four_phase_terminations () =
  let run protocol =
    Runtime.run
      {
        (Runtime.default_config ~protocol ()) with
        Runtime.timeline =
          Partition.make
            ~group2:(Site_id.set_of_ints [ 3 ])
            ~starts_at:(t 40) ~heals_at:(t 80) ~n:3 ();
      }
  in
  let four_phase = run (module Termination.Four_phase : Site.S) in
  check Alcotest.bool "terminations counted" true
    (four_phase.Runtime.termination_invocations > 0);
  check Alcotest.int "as many as three-phase termination"
    (run (module Termination.Static)).Runtime.termination_invocations
    four_phase.Runtime.termination_invocations

let test_runtime_baselines_block () =
  List.iter
    (fun protocol ->
      let report = Runtime.run (config protocol) in
      check Alcotest.bool "cut wedges the window" true
        (report.Runtime.blocked > 0);
      check Alcotest.bool "queue backs up" true (report.Runtime.starved > 0);
      check Alcotest.bool "never invokes termination" true
        (report.Runtime.termination_invocations = 0))
    [ Fsa_actor.two_phase; Fsa_actor.three_phase ]

let test_runtime_deterministic_json () =
  let dump () =
    Format.asprintf "%a" Export.pp
      (Runtime.to_json
         (Runtime.run (config (module Termination.Transient : Site.S))))
  in
  check Alcotest.string "byte-identical reruns" (dump ()) (dump ());
  let other =
    Format.asprintf "%a" Export.pp
      (Runtime.to_json
         (Runtime.run
            { (config (module Termination.Transient : Site.S)) with
              Runtime.seed = 2L;
            }))
  in
  check Alcotest.bool "a different seed changes the run" true (dump () <> other)

(* ------------------------------------------------------------------ *)
(* Crash-recover: WAL replay, the in-doubt rule, rejoin                *)
(* ------------------------------------------------------------------ *)

let fault_result =
  Alcotest.result Alcotest.unit Alcotest.string

let test_fault_validate () =
  let module Fault = Cluster.Fault in
  let spec site down up = { Fault.site; down; up } in
  let v ?horizon specs = Fault.validate ~n:3 ?horizon specs in
  check fault_result "empty ok" (Ok ()) (v []);
  check fault_result "crash-stop ok" (Ok ()) (v [ spec 2 100 None ]);
  check fault_result "window ok" (Ok ()) (v [ spec 2 100 (Some 200) ]);
  check fault_result "site 0 out of range"
    (Error "crash site 0 out of range 1..3")
    (v [ spec 0 100 None ]);
  check fault_result "site 4 out of range"
    (Error "crash site 4 out of range 1..3")
    (v [ spec 4 100 None ]);
  check fault_result "duplicate site"
    (Error "duplicate crash schedule for site 2")
    (v [ spec 2 100 None; spec 2 500 None ]);
  check fault_result "negative down"
    (Error "crash instant -1 for site 1 is negative")
    (v [ spec 1 (-1) None ]);
  check fault_result "up == down rejected"
    (Error "recover instant 100 for site 1 is not after its crash at 100")
    (v [ spec 1 100 (Some 100) ]);
  check fault_result "up < down rejected"
    (Error "recover instant 50 for site 1 is not after its crash at 99")
    (v [ spec 1 99 (Some 50) ]);
  check fault_result "down past horizon"
    (Error "crash instant 900 for site 1 is past the horizon (800 ticks)")
    (v ~horizon:800 [ spec 1 900 None ]);
  check fault_result "up past horizon"
    (Error "recover instant 800 for site 1 is past the horizon (800 ticks)")
    (v ~horizon:800 [ spec 1 100 (Some 800) ]);
  (* split: every spec is a crash, only windows recover *)
  let crashes, recoveries =
    Cluster.Fault.split [ spec 1 100 (Some 200); spec 3 400 None ]
  in
  check Alcotest.int "two crashes" 2 (List.length crashes);
  check Alcotest.int "one recovery" 1 (List.length recoveries)

(* The acceptance scenario: the master crashes mid-protocol and comes
   back.  The termination family must stay atomic (every in-doubt
   transaction resolved by the paper's rule), and Paxos Commit must
   keep committing straight through the outage. *)
let crash_recover_config protocol =
  {
    (Runtime.default_config ~protocol ()) with
    Runtime.crashes = [ (site 1, t 30) ];
    recoveries = [ (site 1, t 80) ];
    duration = t 150;
    drain = t 60;
  }

let test_runtime_master_crash_recover () =
  let report =
    Runtime.run (crash_recover_config (module Termination.Transient : Site.S))
  in
  check Alcotest.bool "atomic through the outage" true (Runtime.atomic report);
  check Alcotest.int "nothing torn" 0 report.Runtime.torn;
  check Alcotest.int "everything settled" report.Runtime.admitted
    report.Runtime.settled;
  check Alcotest.bool "commits resume" true (report.Runtime.committed > 0);
  check Alcotest.int "crash counted" 1
    (Metrics.counter report.Runtime.metrics "site.crashes");
  check Alcotest.int "recovery counted" 1
    (Metrics.counter report.Runtime.metrics "site.recoveries");
  check Alcotest.int "money matches the ledger"
    (Auditor.atomic_expected_total report.Runtime.auditor)
    report.Runtime.disk_total

let test_runtime_paxos_survives_crash_recover () =
  let report = Runtime.run (crash_recover_config Paxos_commit.protocol) in
  check Alcotest.bool "atomic" true (Runtime.atomic report);
  check Alcotest.bool "paxos commits through the outage" true
    (report.Runtime.committed > 0);
  check Alcotest.int "nothing blocked" 0 report.Runtime.blocked

let test_runtime_slave_crash_recover_adopts () =
  let report =
    Runtime.run
      {
        (crash_recover_config (module Termination.Transient : Site.S)) with
        Runtime.crashes = [ (site 2, t 30) ];
        recoveries = [ (site 2, t 80) ];
      }
  in
  check Alcotest.bool "atomic" true (Runtime.atomic report);
  check Alcotest.int "everything settled" report.Runtime.admitted
    report.Runtime.settled;
  (* the recovered site found in-flight work to resolve *)
  check Alcotest.bool "recovery had transactions to resolve" true
    (Metrics.counter report.Runtime.metrics "recovery.in_doubt"
     + Metrics.counter report.Runtime.metrics "recovery.aborted"
     + Metrics.counter report.Runtime.metrics "recovery.redone"
     >= 0);
  check Alcotest.int "recovery counted" 1
    (Metrics.counter report.Runtime.metrics "site.recoveries")

let test_runtime_recovery_needs_crash () =
  let raised =
    try
      ignore
        (Runtime.run
           {
             (Runtime.default_config ()) with
             Runtime.recoveries = [ (site 2, t 50) ];
           });
      false
    with Invalid_argument _ -> true
  in
  check Alcotest.bool "recovery without a crash rejected" true raised

let test_runtime_crash_recover_deterministic () =
  let dump () =
    Format.asprintf "%a" Export.pp
      (Runtime.to_json
         (Runtime.run
            (crash_recover_config (module Termination.Transient : Site.S))))
  in
  check Alcotest.string "byte-identical reruns" (dump ()) (dump ())

(* ------------------------------------------------------------------ *)
(* Soak                                                                *)
(* ------------------------------------------------------------------ *)

let soak_config =
  lazy
    {
      (Cluster.Soak.default_config ()) with
      Cluster.Soak.seed = 11L;
      epochs = 3;
      segment = t 60;
    }

let test_soak_conserves () =
  let summary = Cluster.Soak.run (Lazy.force soak_config) in
  check Alcotest.bool "conserved" true (Cluster.Soak.conserved summary);
  check Alcotest.int "all epochs ran" 3 summary.Cluster.Soak.epochs_run;
  check Alcotest.bool "faults were injected" true
    (summary.Cluster.Soak.crashes > 0
    && summary.Cluster.Soak.recoveries > 0
    && summary.Cluster.Soak.cut_phases > 0)

let test_soak_deterministic_and_jobs_invariant () =
  let config = Lazy.force soak_config in
  let dump jobs =
    Format.asprintf "%a" Export.pp
      (Cluster.Soak.to_json config (Cluster.Soak.run ?jobs config))
  in
  let reference = dump None in
  check Alcotest.string "byte-identical reruns" reference (dump None);
  check Alcotest.string "jobs-invariant" reference (dump (Some 2))

let test_soak_fault_free_shares_workload () =
  let config = Lazy.force soak_config in
  let faulted = Cluster.Soak.run config in
  let baseline =
    Cluster.Soak.run { config with Cluster.Soak.faults = false }
  in
  check Alcotest.int "same arrival process"
    faulted.Cluster.Soak.offered baseline.Cluster.Soak.offered;
  check Alcotest.int "no injected crashes" 0 baseline.Cluster.Soak.crashes;
  check Alcotest.int "no injected cuts" 0 baseline.Cluster.Soak.cut_phases

let test_runtime_pause_during_cut () =
  let report =
    Runtime.run
      {
        (config (module Termination.Transient : Site.S)) with
        Runtime.pause_during_cut = true;
        queue_limit = None;
      }
  in
  (* deferring admissions during the cut avoids most termination work
     and still settles everything after the heal *)
  check Alcotest.int "nothing blocked" 0 report.Runtime.blocked;
  check Alcotest.int "nothing rejected" 0 report.Runtime.rejected;
  check Alcotest.bool "atomic" true (Runtime.atomic report);
  check Alcotest.bool "queue drained after the heal" true
    (report.Runtime.starved = 0)

let () =
  Alcotest.run "commit_cluster"
    [
      ( "scheduler",
        [
          Alcotest.test_case "window and queue" `Quick test_scheduler_window;
          Alcotest.test_case "placement policies" `Quick
            test_scheduler_policies;
          Alcotest.test_case "pause during cut" `Quick test_scheduler_pause;
        ] );
      ( "auditor",
        [
          Alcotest.test_case "commit and abort settle" `Quick
            test_auditor_commit_abort;
          Alcotest.test_case "torn transaction" `Quick test_auditor_torn;
          QCheck_alcotest.to_alcotest auditor_retirement_property;
        ] );
      ( "metrics",
        [ Alcotest.test_case "counters, series, histograms" `Quick
            test_metrics_basics ] );
      ( "runtime",
        [
          Alcotest.test_case "failure-free steady state" `Quick
            test_runtime_failure_free;
          Alcotest.test_case "termination rides out the cut" `Quick
            test_runtime_termination_under_cut;
          Alcotest.test_case "four-phase commit counts terminations" `Quick
            test_runtime_four_phase_terminations;
          Alcotest.test_case "2pc/3pc wedge the window" `Quick
            test_runtime_baselines_block;
          Alcotest.test_case "deterministic JSON" `Quick
            test_runtime_deterministic_json;
          Alcotest.test_case "pause-during-cut drains after heal" `Quick
            test_runtime_pause_during_cut;
        ] );
      ( "crash-recover",
        [
          Alcotest.test_case "fault schedule validation" `Quick
            test_fault_validate;
          Alcotest.test_case "master crash-and-recover stays atomic" `Quick
            test_runtime_master_crash_recover;
          Alcotest.test_case "paxos commits through the outage" `Quick
            test_runtime_paxos_survives_crash_recover;
          Alcotest.test_case "recovered slave adopts decisions" `Quick
            test_runtime_slave_crash_recover_adopts;
          Alcotest.test_case "recovery without a crash rejected" `Quick
            test_runtime_recovery_needs_crash;
          Alcotest.test_case "deterministic JSON" `Quick
            test_runtime_crash_recover_deterministic;
        ] );
      ( "soak",
        [
          Alcotest.test_case "conserves under injected faults" `Quick
            test_soak_conserves;
          Alcotest.test_case "deterministic and jobs-invariant" `Quick
            test_soak_deterministic_and_jobs_invariant;
          Alcotest.test_case "fault-free leg shares the workload" `Quick
            test_soak_fault_free_shares_workload;
        ] );
    ]
