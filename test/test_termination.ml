(* Tests for the paper's termination protocol (lib/core): every idea of
   Section 5.2 exercised on a crafted scenario, Theorem 9 as a sweep,
   the Section 6 transient extension and its case bounds, and the FACT
   1/2 audit of every decision. *)

let check = Alcotest.check

let site = Site_id.of_int

let t_unit = Vtime.of_int 1000

let t mult = Vtime.of_int (mult * 1000)

let config ?(n = 3) ?(partition = Partition.none)
    ?(delay = Delay.uniform ~t_max:t_unit) ?(seed = 1L) ?(votes = []) () =
  let base = Runner.default_config ~n ~t_unit () in
  { base with Runner.partition; delay; seed; votes; trace_enabled = false }

let partition ?heals_after ~g2 ~at ~n () =
  let starts_at = Vtime.of_int at in
  Partition.make
    ?heals_at:
      (Option.map (fun h -> Vtime.add starts_at (Vtime.of_int h)) heals_after)
    ~group2:(Site_id.set_of_ints g2) ~starts_at ~n ()

let decision_t : Types.decision option Alcotest.testable =
  Alcotest.testable
    (fun fmt -> function
      | None -> Format.pp_print_string fmt "none"
      | Some d -> Types.pp_decision fmt d)
    ( = )

let expect_site result id ~decision ~reason =
  let s = Runner.site_result result (site id) in
  check decision_t
    (Printf.sprintf "site %d decision" id)
    (Some decision) s.decision;
  check Alcotest.bool
    (Printf.sprintf "site %d reason %s (got: %s)" id reason
       (String.concat "," s.reasons))
    true (List.mem reason s.reasons)

let run_static = Runner.run (module Termination.Static)

let run_transient = Runner.run (module Termination.Transient)

(* ------------------------------------------------------------------ *)
(* Failure-free and vote-abort flows                                   *)
(* ------------------------------------------------------------------ *)

let test_failure_free_commit () =
  let result = run_static (config ~n:6 ()) in
  Array.iter
    (fun (s : Runner.site_result) ->
      check decision_t "committed" (Some Types.Commit) s.decision)
    result.sites;
  expect_site result 1 ~decision:Types.Commit ~reason:"fact2-case1";
  expect_site result 2 ~decision:Types.Commit ~reason:"fact1-case1"

let test_no_vote_aborts () =
  let result = run_static (config ~votes:[ (site 2, false) ] ()) in
  expect_site result 1 ~decision:Types.Abort ~reason:"no-vote";
  expect_site result 2 ~decision:Types.Abort ~reason:"voted-no";
  expect_site result 3 ~decision:Types.Abort ~reason:"abort-cmd"

(* ------------------------------------------------------------------ *)
(* The Section 5.2 ideas, one scenario each (full delays = T per hop,  *)
(* so the timeline is exact)                                           *)
(* ------------------------------------------------------------------ *)

let full = Delay.full ~t_max:t_unit

(* Idea: xact cannot reach a slave -> master aborts on UD(xact); the cut
   slave never hears of the transaction (vacuous). *)
let test_ud_xact_aborts () =
  let p = partition ~g2:[ 3 ] ~at:100 ~n:3 () in
  let result = run_static (config ~partition:p ~delay:full ()) in
  expect_site result 1 ~decision:Types.Abort ~reason:"ud-xact";
  expect_site result 2 ~decision:Types.Abort ~reason:"abort-cmd";
  let v = Verdict.of_result result in
  check Alcotest.bool "site3 vacuous" true (v.vacuous = [ site 3 ]);
  check Alcotest.bool "atomic" true v.atomic

(* Idea 2: master times out in w1 -> abort is safe (no prepare exists);
   the cut slave's yes bounced, so it aborts for all of G2 (ud-yes). *)
let test_w1_timeout_and_ud_yes () =
  let p = partition ~g2:[ 3 ] ~at:1100 ~n:3 () in
  let result = run_static (config ~partition:p ~delay:full ()) in
  expect_site result 1 ~decision:Types.Abort ~reason:"w1-timeout";
  expect_site result 2 ~decision:Types.Abort ~reason:"abort-cmd";
  expect_site result 3 ~decision:Types.Abort ~reason:"ud-yes";
  check Alcotest.bool "resilient" true (Verdict.resilient (Verdict.of_result result))

(* Idea 3: all prepares were delivered before the cut, so the master's
   p1 timeout commits (fact2-case2); the cut slave's ack bounced, so it
   commits its side (fact1-case5, "idea 6"). *)
let test_p1_timeout_commit_and_ud_ack () =
  let p = partition ~g2:[ 3 ] ~at:3050 ~n:3 () in
  let result = run_static (config ~partition:p ~delay:full ()) in
  expect_site result 1 ~decision:Types.Commit ~reason:"fact2-case2";
  expect_site result 2 ~decision:Types.Commit ~reason:"fact1-case1";
  expect_site result 3 ~decision:Types.Commit ~reason:"fact1-case5";
  check Alcotest.bool "resilient" true (Verdict.resilient (Verdict.of_result result))

(* Idea 4, abort side: no prepare crossed B, so the probes match N - UD
   exactly and the master aborts everyone; the G2 slave aborts at the
   end of its 6T window (Fig. 7). *)
let test_collect_window_abort () =
  let p = partition ~g2:[ 3 ] ~at:2100 ~n:3 () in
  let result = run_static (config ~partition:p ~delay:full ()) in
  expect_site result 1 ~decision:Types.Abort ~reason:"collect-abort";
  expect_site result 2 ~decision:Types.Abort ~reason:"abort-cmd";
  expect_site result 3 ~decision:Types.Abort ~reason:"w2-expired";
  (* The master's collect window closes 5T after the first UD(prepare):
     prepares leave at 2T, bounce back at 4T, window ends at 9T. *)
  let master = Runner.site_result result (site 1) in
  check (Alcotest.option Alcotest.int) "window closes at 9T" (Some (t 9))
    master.decided_at

(* Idea 4, commit side: an asymmetric cut lets prepare3 through and
   bounces prepare4, so PB (probes: site2 only) differs from N - UD
   ({2,3}) and the master commits G1; meanwhile site3, cut off with a
   prepare, learns its position from UD(probe) and commits G2,
   including site4 which never saw a prepare (the Fig. 8 w->c
   transition, FACT1 case 2). *)
let per_link_delays =
  Delay.Per_link
    (fun src dst ->
      match (Site_id.to_int src, Site_id.to_int dst) with
      | 1, 4 | 4, 1 -> Vtime.of_int 900
      | 1, 3 | 3, 1 -> Vtime.of_int 10
      | _, _ -> Vtime.of_int 100)

let test_collect_window_commit () =
  let p = partition ~g2:[ 3; 4 ] ~at:2000 ~n:4 () in
  let result = run_static (config ~n:4 ~partition:p ~delay:per_link_delays ()) in
  expect_site result 1 ~decision:Types.Commit ~reason:"fact2-case3";
  (* site2 (G1) probed before the master's window closed, so its commit
     arrives while probing: FACT1 case 4. *)
  expect_site result 2 ~decision:Types.Commit ~reason:"fact1-case4";
  expect_site result 3 ~decision:Types.Commit ~reason:"fact1-case3";
  expect_site result 4 ~decision:Types.Commit ~reason:"fact1-case2";
  check Alcotest.bool "resilient" true (Verdict.resilient (Verdict.of_result result))

(* ------------------------------------------------------------------ *)
(* Theorem 9: the full sweep has no violation and no blocked site      *)
(* ------------------------------------------------------------------ *)

let static_grid ~n =
  let base = Runner.default_config ~n ~t_unit () in
  Scenario.configs ~base (Scenario.default_grid ~n ~t_unit)

let transient_grid ~n =
  let base = Runner.default_config ~n ~t_unit () in
  let grid = Scenario.default_grid ~n ~t_unit in
  let grid =
    {
      grid with
      Scenario.heals_after =
        [ None; Some (t 1); Some (t 3); Some (t 6) ];
    }
  in
  Scenario.configs ~base grid

let test_theorem9_n3 () =
  let summary = Sweep.run (module Termination.Static) (static_grid ~n:3) in
  check Alcotest.int "no violations" 0 summary.violations;
  check Alcotest.int "no blocked runs" 0 summary.blocked_runs

let test_theorem9_n4 () =
  let summary = Sweep.run (module Termination.Static) (static_grid ~n:4) in
  check Alcotest.int "no violations" 0 summary.violations;
  check Alcotest.int "no blocked runs" 0 summary.blocked_runs

let test_theorem9_n2 () =
  let summary = Sweep.run (module Termination.Static) (static_grid ~n:2) in
  check Alcotest.int "no violations" 0 summary.violations;
  check Alcotest.int "no blocked runs" 0 summary.blocked_runs

let test_theorem9_with_no_votes () =
  let base = Runner.default_config ~n:3 ~t_unit () in
  let grid =
    {
      (Scenario.default_grid ~n:3 ~t_unit) with
      Scenario.votes = [ []; [ (site 2, false) ]; [ (site 3, false) ] ];
    }
  in
  let summary =
    Sweep.run (module Termination.Static) (Scenario.configs ~base grid)
  in
  check Alcotest.int "no violations with no-votes" 0 summary.violations;
  check Alcotest.int "no blocked runs with no-votes" 0 summary.blocked_runs

(* ------------------------------------------------------------------ *)
(* Section 6: transient partitioning                                   *)
(* ------------------------------------------------------------------ *)

let test_static_blocks_on_transient () =
  (* The static protocol is only valid under assumption 5; with heals
     in the grid, case 3.2.2.2 strands a probing slave (the paper's
     motivation for the 5T rule).  Atomicity still holds. *)
  let summary = Sweep.run (module Termination.Static) (transient_grid ~n:3) in
  check Alcotest.int "still atomic" 0 summary.violations;
  check Alcotest.bool "but blocks in case 3.2.2.2" true (summary.blocked_runs > 0)

let test_transient_never_blocks () =
  let summary = Sweep.run (module Termination.Transient) (transient_grid ~n:3) in
  check Alcotest.int "no violations" 0 summary.violations;
  check Alcotest.int "no blocked runs" 0 summary.blocked_runs

let test_transient_never_blocks_n4 () =
  let summary = Sweep.run (module Termination.Transient) (transient_grid ~n:4) in
  check Alcotest.int "no violations" 0 summary.violations;
  check Alcotest.int "no blocked runs" 0 summary.blocked_runs

let test_case_3222_scenario () =
  (* Master committed; commit2 missed the cut slave; the heal lets its
     probe through to a decided master that ignores it.  Static: blocked
     forever.  Transient: commits 5T after the probe. *)
  let p = partition ~g2:[ 2 ] ~at:1750 ~heals_after:1000 ~n:3 () in
  let static_result = run_static (config ~partition:p ()) in
  let s2 = Runner.site_result static_result (site 2) in
  check decision_t "static site2 blocked" None s2.decision;
  check Alcotest.string "stuck probing" "p/probing" s2.final_state;
  let transient_result = run_transient (config ~partition:p ()) in
  expect_site transient_result 2 ~decision:Types.Commit
    ~reason:"transient-5t-commit";
  check Alcotest.bool "transient resilient" true
    (Verdict.resilient (Verdict.of_result transient_result))

(* ------------------------------------------------------------------ *)
(* Section 6 case bounds, measured                                     *)
(* ------------------------------------------------------------------ *)

let test_case_bounds_hold () =
  (* For every grid point that classifies into a bounded case, the
     measured wait from a G2 slave's p-timeout (probe send) to its
     decision must respect the paper's bound. *)
  let configs = transient_grid ~n:3 @ transient_grid ~n:4 in
  let checked = ref 0 in
  List.iter
    (fun cfg ->
      let obs = Cases.observe (module Termination.Transient) cfg in
      match obs.case with
      | None -> ()
      | Some case -> (
          match Timing.case_bound_mult case with
          | None -> ()
          | Some bound ->
              List.iter
                (fun (slave, wait) ->
                  match wait with
                  | None ->
                      Alcotest.fail
                        (Format.asprintf "%a undecided in bounded %a"
                           Site_id.pp slave Timing.pp_case case)
                  | Some w ->
                      incr checked;
                      check Alcotest.bool
                        (Format.asprintf "%a wait %a <= %dT in %a" Site_id.pp
                           slave Vtime.pp w bound Timing.pp_case case)
                        true
                        (w <= bound * 1000))
                obs.probe_waits))
    configs;
  check Alcotest.bool "some bounded waits were actually measured" true
    (!checked > 0)

let test_transient_probe_wait_never_exceeds_5t () =
  (* The Section 6 rule: 5T after the probe, a slave can always decide. *)
  List.iter
    (fun cfg ->
      let obs = Cases.observe (module Termination.Transient) cfg in
      List.iter
        (fun (slave, wait) ->
          match wait with
          | None ->
              Alcotest.fail
                (Format.asprintf "%a never decided" Site_id.pp slave)
          | Some w ->
              check Alcotest.bool
                (Format.asprintf "%a wait %a <= 5T" Site_id.pp slave Vtime.pp w)
                true (w <= 5000))
        obs.probe_waits)
    (transient_grid ~n:3)

(* ------------------------------------------------------------------ *)
(* Window-necessity ablation                                           *)
(* ------------------------------------------------------------------ *)

module Short_collect = Termination.With_windows (struct
  let collect_window_mult = 3

  let wait_window_mult = 6
end)

let test_short_collect_window_breaks () =
  (* Close the master's collection window at 3T and probes that needed
     up to 5T (Fig. 6) arrive too late: the master reads N-UD = PB
     wrongly and mis-decides somewhere on the grid. *)
  let summary = Sweep.run (module Short_collect) (static_grid ~n:3) in
  check Alcotest.bool "3T collect window violates atomicity" true
    (summary.violations > 0)

let test_paper_windows_clean () =
  let module Paper_windows = Termination.With_windows (struct
    let collect_window_mult = Timing.collect_window_mult

    let wait_window_mult = Timing.wait_window_mult
  end) in
  let summary = Sweep.run (module Paper_windows) (static_grid ~n:3) in
  check Alcotest.int "no violations" 0 summary.violations;
  check Alcotest.int "no blocked" 0 summary.blocked_runs

module Short_wait = Termination.With_windows (struct
  let collect_window_mult = 5

  let wait_window_mult = 5
end)

(* Hop delays read in send order (return hops included) from [hops];
   every later hop takes T.  The closure counts, so each run needs a
   fresh one. *)
let hop_vector hops =
  let next = ref hops in
  Delay.Per_link
    (fun _ _ ->
      match !next with
      | d :: rest ->
          next := rest;
          Vtime.of_int d
      | [] -> t_unit)

let test_short_wait_window_breaks () =
  (* No grid needs more than a 5T wait, but this schedule does: site2
     enters w at 1 and times out at 3001, while site3's relayed commit
     reaches it only at 8500.  A 5T wait aborts site2 at 8001 after the
     master and site3 commit; the paper's 6T wait lets the commit
     land. *)
  let run protocol =
    Runner.run protocol
      (config
         ~partition:(partition ~g2:[ 2; 3 ] ~at:2750 ~n:3 ())
         ~delay:(hop_vector [ 1; 1000; 1; 1000; 1000; 500; 1; 1 ])
         ())
  in
  let decided result id =
    let s = Runner.site_result result (site id) in
    (s.decision, Option.map Vtime.to_int s.decided_at)
  in
  let at = Alcotest.(pair decision_t (option int)) in
  let short = run (module Short_wait) in
  check decision_t "5T: master commits" (Some Types.Commit)
    (fst (decided short 1));
  check decision_t "5T: site3 commits" (Some Types.Commit)
    (fst (decided short 3));
  check at "5T: site2 aborts at 8001" (Some Types.Abort, Some 8001)
    (decided short 2);
  expect_site short 2 ~decision:Types.Abort ~reason:"w2-expired";
  check Alcotest.bool "5T: atomicity violated" false
    (Verdict.of_result short).atomic;
  let paper = run (module Termination.Static) in
  check at "6T: site2 commits at 8500" (Some Types.Commit, Some 8500)
    (decided paper 2);
  check Alcotest.bool "6T: atomic" true (Verdict.of_result paper).atomic

(* ------------------------------------------------------------------ *)
(* Assumption 2: no subsequent partition before termination completes  *)
(* ------------------------------------------------------------------ *)

let chained ~ta ~da ~gap ~cut_b =
  Partition.sequence
    [
      Partition.make
        ~group2:(Site_id.set_of_ints [ 3 ])
        ~starts_at:(Vtime.of_int ta)
        ~heals_at:(Vtime.of_int (ta + da))
        ~n:3 ();
      Partition.make
        ~group2:(Site_id.set_of_ints cut_b)
        ~starts_at:(Vtime.of_int (ta + da + gap))
        ~n:3 ();
    ]

let test_assumption2_violated_breaks () =
  (* A second cut lands while the first one's termination is still in
     flight: even the transient variant can be broken — this is exactly
     what the paper's assumption 2 excludes. *)
  let broke = ref false in
  List.iter
    (fun ta ->
      List.iter
        (fun da ->
          List.iter
            (fun gap ->
              List.iter
                (fun cut_b ->
                  List.iter
                    (fun delay ->
                      let p = chained ~ta ~da ~gap ~cut_b in
                      let cfg = config ~partition:p ~delay () in
                      let v =
                        Verdict.of_result (Runner.run (module Termination.Transient) cfg)
                      in
                      if not (Verdict.resilient v) then broke := true)
                    [ Delay.minimal; full; Delay.uniform ~t_max:t_unit ])
                [ [ 2 ]; [ 2; 3 ] ])
            [ 100; 600; 1100 ])
        [ 500; 1000; 2000; 3000 ])
    (List.init 20 (fun i -> 250 * (i + 1)));
  check Alcotest.bool "a mid-termination second cut breaks the protocol" true
    !broke

let test_assumption2_respected_is_fine () =
  (* The same second cut arriving well after every affected transaction
     terminated (>= 15T later) is just a partition over a finished
     transaction: harmless. *)
  List.iter
    (fun ta ->
      List.iter
        (fun cut_b ->
          let p = chained ~ta ~da:2000 ~gap:15000 ~cut_b in
          let cfg = config ~partition:p ~delay:full () in
          let v =
            Verdict.of_result (Runner.run (module Termination.Transient) cfg)
          in
          check Alcotest.bool
            (Printf.sprintf "late second cut harmless (ta=%d)" ta)
            true (Verdict.resilient v))
        [ [ 2 ]; [ 2; 3 ] ])
    [ 1000; 2500; 4000 ]

(* ------------------------------------------------------------------ *)
(* Multiple partitioning: the second impossibility theorem             *)
(* ------------------------------------------------------------------ *)

let multi_grid ~n =
  Scenario.multi_configs
    ~base:(Runner.default_config ~n ~t_unit ())
    ~starts:(Scenario.instants ~t_unit ~until_mult:8 ~per_t:2)
    ~delays:
      [ Delay.minimal; Delay.full ~t_max:t_unit; Delay.uniform ~t_max:t_unit ]
    ~seeds:[ 1L; 42L ]

let test_multiple_partitioning_breaks_termination () =
  (* "There exists no protocol resilient to a multiple network
     partitioning" — the termination protocol included. *)
  let summary = Sweep.run (module Termination.Static) (multi_grid ~n:4) in
  check Alcotest.bool "violations under multiple partitioning" true
    (summary.violations > 0)

let test_multiple_partitioning_quorum_safe_but_blocks () =
  (* The quorum baseline stays atomic under multiple partitioning (no
     two cells can both assemble a quorum) at the price of blocking —
     the classic trade-off the paper's protocol sidesteps by assuming
     simple partitions. *)
  let summary = Sweep.run Inquiry.quorum (multi_grid ~n:4) in
  check Alcotest.int "no violations" 0 summary.violations;
  check Alcotest.bool "blocking instead" true (summary.blocked_runs > 0)

(* ------------------------------------------------------------------ *)
(* Boundary instants: ties between deliveries, timers and the cut      *)
(* ------------------------------------------------------------------ *)

let test_partition_on_exact_instants () =
  (* With full-T delays every event lands on a multiple of T.  Cutting
     the network exactly on those instants exercises the tie rules:
     partition membership is evaluated at arrival, and deliveries
     precede timers at equal timestamps.  Resilience must hold on every
     exact boundary. *)
  List.iter
    (fun at ->
      List.iter
        (fun g2 ->
          let p = partition ~g2 ~at ~n:3 () in
          let result = run_static (config ~partition:p ~delay:full ()) in
          let v = Verdict.of_result result in
          check Alcotest.bool
            (Printf.sprintf "resilient at exact instant %d" at)
            true (Verdict.resilient v);
          check Alcotest.bool
            (Printf.sprintf "facts hold at %d" at)
            true
            (Facts.audit result = Ok ()))
        [ [ 2 ]; [ 3 ]; [ 2; 3 ] ])
    [ 1000; 2000; 3000; 4000; 5000; 6000; 7000; 8000; 9000; 10000 ]

let test_heal_on_exact_window_close () =
  (* Heals landing exactly on the master's collect-window close and one
     tick around it. *)
  List.iter
    (fun heals_after ->
      let p = partition ~g2:[ 3 ] ~at:2100 ~heals_after ~n:3 () in
      let result = run_transient (config ~partition:p ~delay:full ()) in
      check Alcotest.bool
        (Printf.sprintf "resilient with heal after %d" heals_after)
        true
        (Verdict.resilient (Verdict.of_result result)))
    [ 6899; 6900; 6901; 7899; 7900; 7901 ]

let test_larger_site_counts () =
  (* Spot sweeps at n = 6 and n = 8 (reduced grid: fewer cuts/instants
     keep it fast while still crossing every protocol phase). *)
  List.iter
    (fun n ->
      let slaves = Site_id.slaves ~n in
      let half =
        Site_id.Set.of_list
          (List.filteri (fun i _ -> i mod 2 = 1) slaves)
      in
      let single = Site_id.Set.singleton (Site_id.of_int n) in
      List.iter
        (fun cut ->
          List.iter
            (fun at ->
              let p =
                Partition.make ~group2:cut ~starts_at:(Vtime.of_int at) ~n ()
              in
              List.iter
                (fun delay ->
                  let result =
                    run_static (config ~n ~partition:p ~delay ())
                  in
                  check Alcotest.bool
                    (Printf.sprintf "n=%d at=%d resilient" n at)
                    true
                    (Verdict.resilient (Verdict.of_result result)))
                [ full; Delay.uniform ~t_max:t_unit ])
            [ 500; 1500; 2500; 3500; 4500; 5500 ])
        [ half; single ])
    [ 6; 8 ]

(* ------------------------------------------------------------------ *)
(* Theorem 10, constructively: four-phase commit terminated            *)
(* ------------------------------------------------------------------ *)

let test_theorem10_4pc_failure_free () =
  let result = Runner.run (module Termination.Four_phase) (config ~n:5 ()) in
  Array.iter
    (fun (s : Runner.site_result) ->
      check decision_t "committed" (Some Types.Commit) s.decision)
    result.sites;
  let abort =
    Runner.run (module Termination.Four_phase) (config ~votes:[ (site 3, false) ] ())
  in
  check Alcotest.bool "aborts on a no vote" true
    (List.for_all (( = ) (Some Types.Abort)) (Runner.decisions abort))

let test_theorem10_4pc_resilient_n3 () =
  let summary = Sweep.run (module Termination.Four_phase) (static_grid ~n:3) in
  check Alcotest.int "no violations" 0 summary.violations;
  check Alcotest.int "no blocked runs" 0 summary.blocked_runs

let test_theorem10_4pc_resilient_n4 () =
  let summary = Sweep.run (module Termination.Four_phase) (static_grid ~n:4) in
  check Alcotest.int "no violations" 0 summary.violations;
  check Alcotest.int "no blocked runs" 0 summary.blocked_runs

let theorem10_random_resilient =
  QCheck.Test.make ~count:200
    ~name:"4pc termination resilient under random per-link delays"
    QCheck.(triple (int_range 2 5) (int_range 0 11000) small_nat)
    (fun (n, at, seed) ->
      let rng = Rng.create (Int64.of_int ((seed * 5) + 1)) in
      let matrix =
        Array.init (n + 1) (fun _ ->
            Array.init (n + 1) (fun _ -> 1 + Rng.int rng ~bound:1000))
      in
      let delay =
        Delay.Per_link
          (fun src dst ->
            Vtime.of_int matrix.(Site_id.to_int src).(Site_id.to_int dst))
      in
      let slaves = Site_id.slaves ~n in
      let g2 = List.filter (fun _ -> Rng.bool rng) slaves in
      let g2 =
        if g2 = [] then [ List.nth slaves (Rng.int rng ~bound:(n - 1)) ]
        else g2
      in
      let p =
        Partition.make
          ~group2:(Site_id.Set.of_list g2)
          ~starts_at:(Vtime.of_int at) ~n ()
      in
      let cfg = config ~n ~partition:p ~delay () in
      let result = Runner.run (module Termination.Four_phase) cfg in
      Verdict.resilient (Verdict.of_result result))

(* ------------------------------------------------------------------ *)
(* Lemma 8: the outcome is exactly "did a prepare cross B"             *)
(* ------------------------------------------------------------------ *)

let test_lemma8_case_family_decides_outcome () =
  (* Lemma 8 (static partitions): all sites commit iff some G2 slave
     received a prepare — i.e. case 1 aborts and every case-2/3 scenario
     commits.  Under a *transient* partition one extra behaviour is
     sound and observed: in case 2.2.2 the healed network can deliver
     the G2 probes into the master's window, making PB = N - UD and
     aborting everyone — consistently, since case 2.2 guarantees no
     UD(ack) self-commit happened.  The lemma's dichotomy is an
     assumption-5 statement; atomicity holds regardless. *)
  let checked = ref 0 in
  let observe ~transient cfg =
    let obs = Cases.observe (module Termination.Transient) cfg in
    let v = Verdict.of_result obs.Cases.result in
    match obs.Cases.case with
    | None -> ()
    | Some case ->
        incr checked;
        let allowed =
          match case with
          | Timing.Case_1 -> [ `Aborted ]
          | Timing.Case_2_2_2 when transient -> [ `Committed; `Aborted ]
          | Timing.Case_2_1 | Timing.Case_2_2_1 | Timing.Case_2_2_2
          | Timing.Case_3_1 | Timing.Case_3_2_1 | Timing.Case_3_2_2_1
          | Timing.Case_3_2_2_2 ->
              [ `Committed ]
        in
        check Alcotest.bool
          (Format.asprintf "%a outcome admissible" Timing.pp_case case)
          true
          (List.mem (Verdict.outcome v) allowed)
  in
  List.iter (observe ~transient:false) (static_grid ~n:3 @ static_grid ~n:4);
  List.iter (observe ~transient:true) (transient_grid ~n:3);
  check Alcotest.bool "cases were observed" true (!checked > 1000)

(* ------------------------------------------------------------------ *)
(* FACT 1 / FACT 2 audit                                               *)
(* ------------------------------------------------------------------ *)

let audit_sweep protocol grid () =
  List.iter
    (fun cfg ->
      match Facts.audit (Runner.run protocol cfg) with
      | Ok () -> ()
      | Error problems ->
          Alcotest.fail
            (Format.asprintf "%s: %a" (Scenario.config_id cfg) Facts.pp_problem
               (List.hd problems)))
    grid

let test_facts_rejects_other_protocols () =
  let result = Runner.run Fsa_actor.two_phase (config ()) in
  let raised =
    try
      ignore (Facts.audit result);
      false
    with Invalid_argument _ -> true
  in
  check Alcotest.bool "audit refuses 2pc results" true raised

(* ------------------------------------------------------------------ *)
(* Property: random scenarios are always resilient                     *)
(* ------------------------------------------------------------------ *)

let random_scenario_resilient =
  QCheck.Test.make ~count:300 ~name:"termination protocol resilient on random scenarios"
    QCheck.(
      quad (int_range 2 6) (int_range 0 9000) (int_range 0 2) small_nat)
    (fun (n, at, delay_ix, seed) ->
      let rng = Rng.create (Int64.of_int (seed + 1)) in
      (* random nonempty proper subset of slaves *)
      let slaves = Site_id.slaves ~n in
      let g2 =
        List.filter (fun _ -> Rng.bool rng) slaves
      in
      let g2 = if g2 = [] then [ List.nth slaves (Rng.int rng ~bound:(n - 1)) ] else g2 in
      let g2 = if List.length g2 = n - 1 && n = 2 then g2 else g2 in
      let p =
        Partition.make
          ~group2:(Site_id.Set.of_list g2)
          ~starts_at:(Vtime.of_int at) ~n ()
      in
      let delay =
        match delay_ix with
        | 0 -> Delay.minimal
        | 1 -> Delay.full ~t_max:t_unit
        | _ -> Delay.uniform ~t_max:t_unit
      in
      let cfg =
        config ~n ~partition:p ~delay ~seed:(Int64.of_int (seed * 31 + 7)) ()
      in
      let result = Runner.run (module Termination.Static) cfg in
      let v = Verdict.of_result result in
      Verdict.resilient v && Facts.audit result = Ok ())

(* Adversarial asymmetric links: a random delay matrix (each directed
   link a fixed delay in [1,T]), random cut, random instant.  The grids
   only use symmetric models; this hunts for orderings they miss. *)
let random_link_matrix_resilient =
  QCheck.Test.make ~count:250
    ~name:"termination protocol resilient under random per-link delays"
    QCheck.(triple (int_range 2 5) (int_range 0 9000) small_nat)
    (fun (n, at, seed) ->
      let rng = Rng.create (Int64.of_int ((seed * 7) + 13)) in
      let matrix =
        Array.init (n + 1) (fun _ ->
            Array.init (n + 1) (fun _ -> 1 + Rng.int rng ~bound:1000))
      in
      let delay =
        Delay.Per_link
          (fun src dst ->
            Vtime.of_int matrix.(Site_id.to_int src).(Site_id.to_int dst))
      in
      let slaves = Site_id.slaves ~n in
      let g2 = List.filter (fun _ -> Rng.bool rng) slaves in
      let g2 =
        if g2 = [] then [ List.nth slaves (Rng.int rng ~bound:(n - 1)) ]
        else g2
      in
      let p =
        Partition.make
          ~group2:(Site_id.Set.of_list g2)
          ~starts_at:(Vtime.of_int at) ~n ()
      in
      let cfg = config ~n ~partition:p ~delay () in
      let result = Runner.run (module Termination.Static) cfg in
      Verdict.resilient (Verdict.of_result result)
      && Facts.audit result = Ok ())

(* The transient variant under random heal instants on top of the random
   matrix — the hardest setting the paper covers. *)
let random_transient_resilient =
  QCheck.Test.make ~count:250
    ~name:"transient variant resilient under random heals and delays"
    QCheck.(
      quad (int_range 2 5) (int_range 0 9000) (int_range 1 12000) small_nat)
    (fun (n, at, heal_after, seed) ->
      let rng = Rng.create (Int64.of_int ((seed * 11) + 3)) in
      let matrix =
        Array.init (n + 1) (fun _ ->
            Array.init (n + 1) (fun _ -> 1 + Rng.int rng ~bound:1000))
      in
      let delay =
        Delay.Per_link
          (fun src dst ->
            Vtime.of_int matrix.(Site_id.to_int src).(Site_id.to_int dst))
      in
      let slaves = Site_id.slaves ~n in
      let g2 = List.filter (fun _ -> Rng.bool rng) slaves in
      let g2 =
        if g2 = [] then [ List.nth slaves (Rng.int rng ~bound:(n - 1)) ]
        else g2
      in
      let p =
        Partition.make
          ~group2:(Site_id.Set.of_list g2)
          ~starts_at:(Vtime.of_int at)
          ~heals_at:(Vtime.of_int (at + heal_after))
          ~n ()
      in
      let cfg = config ~n ~partition:p ~delay () in
      let result = Runner.run (module Termination.Transient) cfg in
      Verdict.resilient (Verdict.of_result result)
      && Facts.audit result = Ok ())

let () =
  Alcotest.run "commit_termination"
    [
      ( "flows",
        [
          Alcotest.test_case "failure-free commit (n=6)" `Quick
            test_failure_free_commit;
          Alcotest.test_case "no vote aborts" `Quick test_no_vote_aborts;
        ] );
      ( "section5-ideas",
        [
          Alcotest.test_case "UD(xact) aborts" `Quick test_ud_xact_aborts;
          Alcotest.test_case "w1 timeout + UD(yes)" `Quick
            test_w1_timeout_and_ud_yes;
          Alcotest.test_case "p1 timeout commit + UD(ack)" `Quick
            test_p1_timeout_commit_and_ud_ack;
          Alcotest.test_case "collect window aborts (N-UD = PB)" `Quick
            test_collect_window_abort;
          Alcotest.test_case "collect window commits (N-UD <> PB)" `Quick
            test_collect_window_commit;
        ] );
      ( "theorem9",
        [
          Alcotest.test_case "n=2 sweep" `Slow test_theorem9_n2;
          Alcotest.test_case "n=3 sweep" `Slow test_theorem9_n3;
          Alcotest.test_case "n=4 sweep" `Slow test_theorem9_n4;
          Alcotest.test_case "with no-votes" `Slow test_theorem9_with_no_votes;
          QCheck_alcotest.to_alcotest random_scenario_resilient;
          QCheck_alcotest.to_alcotest random_link_matrix_resilient;
          QCheck_alcotest.to_alcotest random_transient_resilient;
        ] );
      ( "section6-transient",
        [
          Alcotest.test_case "static blocks on transient partitions" `Slow
            test_static_blocks_on_transient;
          Alcotest.test_case "transient variant never blocks (n=3)" `Slow
            test_transient_never_blocks;
          Alcotest.test_case "transient variant never blocks (n=4)" `Slow
            test_transient_never_blocks_n4;
          Alcotest.test_case "case 3.2.2.2 scenario" `Quick test_case_3222_scenario;
          Alcotest.test_case "case bounds hold" `Slow test_case_bounds_hold;
          Alcotest.test_case "probe wait <= 5T (transient)" `Slow
            test_transient_probe_wait_never_exceeds_5t;
        ] );
      ( "window-ablation",
        [
          Alcotest.test_case "3T collect window breaks" `Slow
            test_short_collect_window_breaks;
          Alcotest.test_case "paper windows are clean" `Slow
            test_paper_windows_clean;
          Alcotest.test_case "5T wait window breaks" `Quick
            test_short_wait_window_breaks;
        ] );
      ( "assumption2",
        [
          Alcotest.test_case "mid-termination second cut breaks" `Slow
            test_assumption2_violated_breaks;
          Alcotest.test_case "post-termination second cut harmless" `Quick
            test_assumption2_respected_is_fine;
        ] );
      ( "multiple-partitioning",
        [
          Alcotest.test_case "termination protocol breaks (impossibility)"
            `Slow test_multiple_partitioning_breaks_termination;
          Alcotest.test_case "quorum stays atomic but blocks" `Slow
            test_multiple_partitioning_quorum_safe_but_blocks;
        ] );
      ( "boundaries",
        [
          Alcotest.test_case "partition on exact instants" `Quick
            test_partition_on_exact_instants;
          Alcotest.test_case "heal on exact window close" `Quick
            test_heal_on_exact_window_close;
          Alcotest.test_case "larger site counts" `Slow
            test_larger_site_counts;
        ] );
      ( "theorem10",
        [
          Alcotest.test_case "4pc failure-free flows" `Quick
            test_theorem10_4pc_failure_free;
          Alcotest.test_case "4pc-termination resilient (n=3)" `Slow
            test_theorem10_4pc_resilient_n3;
          Alcotest.test_case "4pc-termination resilient (n=4)" `Slow
            test_theorem10_4pc_resilient_n4;
          QCheck_alcotest.to_alcotest theorem10_random_resilient;
        ] );
      ( "lemma8",
        [
          Alcotest.test_case "case family decides the outcome" `Slow
            test_lemma8_case_family_decides_outcome;
        ] );
      ( "facts",
        [
          Alcotest.test_case "audit static sweep" `Slow
            (audit_sweep (module Termination.Static) (static_grid ~n:3));
          Alcotest.test_case "audit transient sweep" `Slow
            (audit_sweep (module Termination.Transient) (transient_grid ~n:3));
          (* Four-phase commit is judged as the static variant. *)
          Alcotest.test_case "audit four-phase sweep" `Slow
            (audit_sweep (module Termination.Four_phase) (static_grid ~n:3));
          Alcotest.test_case "audit refuses other protocols" `Quick
            test_facts_rejects_other_protocols;
        ] );
    ]
