(* Paxos Commit (lib/protocols/paxos_commit.ml): ballot arithmetic,
   the F=0 = 2PC collapse, master-failure survival, the acceptor-
   majority audit, and cluster/sweep determinism for the new family. *)

let check = Alcotest.check

let t_unit = Vtime.of_int 1000

let config ?(n = 3) ?(partition = Partition.none)
    ?(delay = Delay.uniform ~t_max:t_unit) ?(seed = 1L) ?(votes = [])
    ?(crashes = []) () =
  let base = Runner.default_config ~n ~t_unit () in
  {
    base with
    Runner.partition;
    delay;
    seed;
    votes;
    crashes;
    trace_enabled = false;
  }

let delays =
  [ Delay.minimal; Delay.full ~t_max:t_unit; Delay.uniform ~t_max:t_unit ]

(* ------------------------------------------------------------------ *)
(* Ballot arithmetic                                                   *)
(* ------------------------------------------------------------------ *)

let qcheck_ballot_roundtrip =
  QCheck.Test.make ~count:500 ~name:"ballot owner/round roundtrip"
    QCheck.(pair (int_range 2 8) (pair (int_range 1 8) (int_range 1 50)))
    (fun (n, (site, round)) ->
      QCheck.assume (site <= n);
      let b = Acceptor.make_ballot ~n ~site:(Site_id.of_int site) ~round in
      b > Acceptor.ballot_zero
      && Site_id.to_int (Acceptor.owner ~n b) = site
      && Acceptor.round ~n b = round)

let qcheck_ballot_total_order =
  (* The int order on ballots is exactly the lexicographic order on
     (round, owner site) — what leader replacement relies on: any two
     distinct (site, round) pairs own distinct, comparable ballots. *)
  QCheck.Test.make ~count:500 ~name:"ballot order is lex (round, site)"
    QCheck.(
      pair (int_range 2 8)
        (pair
           (pair (int_range 1 8) (int_range 1 40))
           (pair (int_range 1 8) (int_range 1 40))))
    (fun (n, ((s1, r1), (s2, r2))) ->
      QCheck.assume (s1 <= n && s2 <= n);
      let b1 = Acceptor.make_ballot ~n ~site:(Site_id.of_int s1) ~round:r1 in
      let b2 = Acceptor.make_ballot ~n ~site:(Site_id.of_int s2) ~round:r2 in
      compare b1 b2 = compare (r1, s1) (r2, s2))

let test_ballot_zero () =
  check Alcotest.int "round of ballot 0" 0 (Acceptor.round ~n:3 Acceptor.ballot_zero);
  check Alcotest.bool "master owns ballot 0" true
    (Site_id.is_master (Acceptor.owner ~n:3 Acceptor.ballot_zero))

(* ------------------------------------------------------------------ *)
(* Fault-free behaviour                                                *)
(* ------------------------------------------------------------------ *)

let test_fault_free_commit () =
  List.iter
    (fun n ->
      List.iter
        (fun seed ->
          let result =
            Runner.run Paxos_commit.protocol (config ~n ~seed ())
          in
          let v = Verdict.of_result result in
          check Alcotest.bool
            (Printf.sprintf "n=%d seed=%Ld commits" n seed)
            true
            (Verdict.resilient v && Verdict.outcome v = `Committed))
        [ 1L; 7L; 99L ])
    [ 2; 3; 5 ]

let test_vote_no_aborts () =
  let result =
    Runner.run Paxos_commit.protocol
      (config ~votes:[ (Site_id.of_int 2, false) ] ())
  in
  let v = Verdict.of_result result in
  check Alcotest.bool "aborted everywhere" true
    (Verdict.resilient v && Verdict.outcome v = `Aborted)

(* ------------------------------------------------------------------ *)
(* F=0 collapses to 2PC                                                *)
(* ------------------------------------------------------------------ *)

let decisions result =
  Array.to_list
    (Array.map
       (fun (s : Runner.site_result) -> (s.site, s.decision, s.decided_at))
       result.Runner.sites)

let test_f0_is_2pc () =
  (* Identical wire pattern -> identical RNG draws -> byte-identical
     decision timings, fault-free, for every delay model, seed and vote
     assignment. *)
  List.iter
    (fun delay ->
      List.iter
        (fun seed ->
          List.iter
            (fun votes ->
              let cfg = config ~delay ~seed ~votes () in
              let px = Runner.run Paxos_commit.protocol_f0 cfg in
              let tp = Runner.run Fsa_actor.two_phase cfg in
              check
                Alcotest.(
                  list
                    (triple int (option bool) (option int)))
                "same decisions at the same instants"
                (List.map
                   (fun (s, d, at) ->
                     ( Site_id.to_int s,
                       Option.map (fun d -> d = Types.Commit) d,
                       Option.map Vtime.to_int at ))
                   (decisions tp))
                (List.map
                   (fun (s, d, at) ->
                     ( Site_id.to_int s,
                       Option.map (fun d -> d = Types.Commit) d,
                       Option.map Vtime.to_int at ))
                   (decisions px)))
            [ []; [ (Site_id.of_int 3, false) ] ])
        [ 1L; 7L; 99L ])
    delays

(* ------------------------------------------------------------------ *)
(* Master failure: the family asymmetry                                *)
(* ------------------------------------------------------------------ *)

let crash_grid =
  Scenario.configs
    ~base:{ (Runner.default_config ~n:3 ~t_unit ()) with trace_enabled = false }
    (Scenario.master_crash_grid ~t_unit)

let test_master_crash_paxos_survives () =
  List.iter
    (fun cfg ->
      let v = Verdict.of_result (Runner.run Paxos_commit.protocol cfg) in
      check Alcotest.bool "resilient on every crash timeline" true
        (Verdict.resilient v))
    crash_grid

let test_master_crash_asymmetry () =
  (* Same timelines: the paper's termination protocol stays atomic but
     aborts transactions Paxos commits; the F=0 fast path blocks. *)
  let spx = Sweep.run Paxos_commit.protocol crash_grid in
  let stt = Sweep.run (module Termination.Transient) crash_grid in
  let sf0 = Sweep.run Paxos_commit.protocol_f0 crash_grid in
  check Alcotest.int "paxos: no blocked runs" 0 spx.blocked_runs;
  check Alcotest.int "paxos: no violations" 0 spx.violations;
  check Alcotest.int "termination: still atomic" 0 stt.violations;
  check Alcotest.bool "termination commits strictly less" true
    (stt.committed < spx.committed);
  check Alcotest.bool "f0 blocks like 2pc" true (sf0.blocked_runs > 0)

let test_crash_grid_jobs_deterministic () =
  let scalar (s : Sweep.summary) =
    ( (s.runs, s.violations, s.blocked_runs, s.committed),
      (s.aborted, s.undecided, s.max_decision_time, s.total_decision_time) )
  in
  let s1 = Sweep.run ~jobs:1 Paxos_commit.protocol crash_grid in
  let s2 = Sweep.run ~jobs:2 Paxos_commit.protocol crash_grid in
  check Alcotest.bool "summary independent of --jobs" true
    (scalar s1 = scalar s2)

(* ------------------------------------------------------------------ *)
(* Acceptor-majority audit                                             *)
(* ------------------------------------------------------------------ *)

let test_majority_audit_commit () =
  let tap, events = Paxos_check.collecting_tap () in
  let result = Runner.run ~tap Paxos_commit.protocol (config ()) in
  match Paxos_check.audit ~f:1 result (events ()) with
  | Error problems ->
      Alcotest.failf "audit rejected a clean commit: %a"
        Fmt.(list ~sep:comma Paxos_check.pp_problem)
        problems
  | Ok facts ->
      check Alcotest.int "one fact per instance" 3 (List.length facts);
      List.iter
        (fun (f : Paxos_check.fact) ->
          check Alcotest.int "fast path: ballot 0" 0 f.ballot;
          check Alcotest.bool "majority met" true
            (f.wire_accepts + (if f.leader_local then 1 else 0) >= f.majority))
        facts

let test_majority_audit_after_recovery () =
  (* Master dies mid-protocol; the recovery leader's commit must still
     carry majority evidence for every instance. *)
  List.iter
    (fun at ->
      let cfg = config ~crashes:[ (Site_id.master, Vtime.of_int at) ] () in
      let tap, events = Paxos_check.collecting_tap () in
      let result = Runner.run ~tap Paxos_commit.protocol cfg in
      match Paxos_check.audit ~f:1 result (events ()) with
      | Ok _ -> ()
      | Error problems ->
          Alcotest.failf "audit rejected crash run (at=%d): %a" at
            Fmt.(list ~sep:comma Paxos_check.pp_problem)
            problems)
    [ 500; 1500; 2500; 3500 ]

(* ------------------------------------------------------------------ *)
(* Cluster runtime: crash schedule + determinism                       *)
(* ------------------------------------------------------------------ *)

let cluster_config ?(protocol = Paxos_commit.protocol) ?(crashes = [])
    ?(timeline = Partition.none) () =
  let module R = Commit_cluster.Runtime in
  {
    (R.default_config ~protocol ~n:3 ()) with
    R.timeline;
    duration = Vtime.of_int 60_000;
    drain = Vtime.of_int 40_000;
    crashes;
  }

let test_cluster_paxos_cut_heal () =
  let module R = Commit_cluster.Runtime in
  let timeline =
    Partition.make
      ~group2:(Site_id.set_of_ints [ 3 ])
      ~starts_at:(Vtime.of_int 20_000) ~heals_at:(Vtime.of_int 45_000) ~n:3 ()
  in
  let cfg = cluster_config ~timeline () in
  let r1 = R.run cfg in
  let r2 = R.run cfg in
  check Alcotest.bool "auditor green" true (R.atomic r1);
  check Alcotest.int "nothing blocked" 0 r1.R.blocked;
  check Alcotest.string "byte-identical reruns"
    (Export.to_string (R.to_json r1))
    (Export.to_string (R.to_json r2))

let test_cluster_master_crash_asymmetry () =
  let module R = Commit_cluster.Runtime in
  let crashes = [ (Site_id.master, Vtime.of_int 25_000) ] in
  let px = R.run (cluster_config ~crashes ()) in
  check Alcotest.bool "paxos: auditor green" true (R.atomic px);
  check Alcotest.int "paxos: nothing blocked" 0 px.R.blocked;
  let f0 =
    R.run (cluster_config ~protocol:Paxos_commit.protocol_f0 ~crashes ())
  in
  check Alcotest.bool "f0: auditor green" true (R.atomic f0);
  check Alcotest.bool "f0: strands the master's transaction" true
    (f0.R.blocked > 0)

let test_cluster_crash_jobs_deterministic () =
  let module C = Commit_cluster.Cluster_sweep in
  let grid =
    {
      C.base =
        cluster_config ~crashes:[ (Site_id.master, Vtime.of_int 25_000) ] ();
      seeds = [ 1L; 2L; 3L ];
      timelines = [ ("none", Partition.none) ];
      policies = [ Commit_cluster.Scheduler.Partition_aware ];
      protocols = [];
    }
  in
  let s1 = C.run ~jobs:1 grid in
  let s2 = C.run ~jobs:2 grid in
  check Alcotest.string "cluster sweep independent of --jobs"
    (Export.to_string (C.to_json s1))
    (Export.to_string (C.to_json s2))

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let test_registry_covers_paxos () =
  check Alcotest.bool "paxos registered" true (Registry.find "paxos" <> None);
  check Alcotest.bool "paxos-f0 registered" true
    (Registry.find "paxos-f0" <> None);
  let names = List.map fst Registry.enum in
  check Alcotest.bool "names unique" true
    (List.sort_uniq String.compare names = List.sort String.compare names);
  List.iter
    (fun { Registry.name; protocol = (module P : Site.S); _ } ->
      check Alcotest.string "registry name matches module name" name P.name)
    Registry.all

let () =
  Alcotest.run "commit_paxos"
    [
      ( "ballots",
        [
          QCheck_alcotest.to_alcotest qcheck_ballot_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_ballot_total_order;
          Alcotest.test_case "ballot zero" `Quick test_ballot_zero;
        ] );
      ( "fault-free",
        [
          Alcotest.test_case "commits" `Quick test_fault_free_commit;
          Alcotest.test_case "vote-no aborts" `Quick test_vote_no_aborts;
          Alcotest.test_case "f0 = 2pc" `Quick test_f0_is_2pc;
        ] );
      ( "master-crash",
        [
          Alcotest.test_case "paxos survives every timeline" `Quick
            test_master_crash_paxos_survives;
          Alcotest.test_case "family asymmetry" `Quick
            test_master_crash_asymmetry;
          Alcotest.test_case "sweep jobs-deterministic" `Quick
            test_crash_grid_jobs_deterministic;
        ] );
      ( "majority-audit",
        [
          Alcotest.test_case "clean commit" `Quick test_majority_audit_commit;
          Alcotest.test_case "after leader recovery" `Quick
            test_majority_audit_after_recovery;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "cut/heal deterministic" `Quick
            test_cluster_paxos_cut_heal;
          Alcotest.test_case "master-crash asymmetry" `Quick
            test_cluster_master_crash_asymmetry;
          Alcotest.test_case "crash sweep jobs-deterministic" `Quick
            test_cluster_crash_jobs_deterministic;
        ] );
      ( "registry",
        [
          Alcotest.test_case "covers the new family" `Quick
            test_registry_covers_paxos;
        ] );
    ]
