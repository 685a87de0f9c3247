(* Tests for the executable commit protocols (lib/protocols): the
   failure-free flows, the blocking behaviour of 2PC/3PC, the two-site
   resilience of extended 2PC and its multisite counterexample, both
   3PC+rules strawmen, and the quorum baseline. *)

let check = Alcotest.check

let site = Site_id.of_int

let t_unit = Vtime.of_int 1000

let config ?(n = 3) ?partition ?delay ?(seed = 1L) ?(votes = []) () =
  let base = Runner.default_config ~n ~t_unit () in
  {
    base with
    Runner.partition = Option.value partition ~default:Partition.none;
    delay = Option.value delay ~default:(Delay.uniform ~t_max:t_unit);
    seed;
    votes;
    trace_enabled = false;
  }

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

let decisions result = Runner.decisions result

let all_protocols : Site.packed list =
  [
    Fsa_actor.two_phase;
    Fsa_actor.ext_two_phase;
    Fsa_actor.three_phase;
    Fsa_actor.three_phase_rules;
    Fsa_actor.three_phase_rules_strict;
    Inquiry.skeen;
    Inquiry.quorum;
    (module Termination.Static);
    (module Termination.Transient);
  ]

(* ------------------------------------------------------------------ *)
(* Failure-free flows                                                  *)
(* ------------------------------------------------------------------ *)

let test_all_commit_failure_free () =
  List.iter
    (fun (module P : Site.S) ->
      List.iter
        (fun n ->
          List.iter
            (fun seed ->
              let result = Runner.run (module P) (config ~n ~seed ()) in
              check
                Alcotest.(list decision_t)
                (Printf.sprintf "%s n=%d seed=%Ld all commit" P.name n seed)
                (List.init n (fun _ -> Some Types.Commit))
                (decisions result))
            [ 1L; 7L; 99L ])
        [ 2; 3; 5 ])
    all_protocols

let test_all_abort_on_no_vote () =
  List.iter
    (fun (module P : Site.S) ->
      let result =
        Runner.run (module P) (config ~n:3 ~votes:[ (site 3, false) ] ())
      in
      check
        Alcotest.(list decision_t)
        (P.name ^ " aborts on a no vote")
        [ Some Types.Abort; Some Types.Abort; Some Types.Abort ]
        (decisions result))
    all_protocols

let test_2pc_message_count () =
  (* Fig. 1: xact, yes, commit — one per slave per phase. *)
  let result = Runner.run Fsa_actor.two_phase (config ~n:4 ()) in
  check Alcotest.int "3 * (n-1) messages" 9 result.net_stats.sent;
  check Alcotest.int "all delivered" 9 result.net_stats.delivered

let test_3pc_message_count () =
  (* Fig. 3: xact, yes, prepare, ack, commit. *)
  let result = Runner.run Fsa_actor.three_phase (config ~n:4 ()) in
  check Alcotest.int "5 * (n-1) messages" 15 result.net_stats.sent

let test_decision_time_failure_free () =
  (* The whole exchange fits in 5 one-hop generations: every protocol
     decides within 5T failure-free. *)
  List.iter
    (fun (module P : Site.S) ->
      let result =
        Runner.run (module P) (config ~delay:(Delay.full ~t_max:t_unit) ())
      in
      Array.iter
        (fun (s : Runner.site_result) ->
          match s.decided_at with
          | Some at ->
              check Alcotest.bool
                (Printf.sprintf "%s decides within 5T" P.name)
                true (at <= 5000)
          | None -> Alcotest.fail (P.name ^ ": site undecided failure-free"))
        result.sites)
    all_protocols

(* ------------------------------------------------------------------ *)
(* Two-phase commit blocks                                             *)
(* ------------------------------------------------------------------ *)

let test_2pc_blocks_under_partition () =
  (* Partition during the vote round: the master never hears site3 and
     waits forever; site3 waits forever in w. *)
  let p = partition ~g2:[ 3 ] ~at:1100 ~n:3 () in
  let result =
    Runner.run
      Fsa_actor.two_phase
      (config ~partition:p ~delay:(Delay.full ~t_max:t_unit) ())
  in
  let v = Verdict.of_result result in
  check Alcotest.bool "atomic" true v.atomic;
  check Alcotest.bool "blocked sites exist" true (v.blocked <> []);
  (* Blocking is indefinite: the final states are still in-protocol. *)
  check Alcotest.string "master stuck in w1" "w1"
    (Runner.site_result result (site 1)).final_state

let test_3pc_blocks_under_partition () =
  let p = partition ~g2:[ 3 ] ~at:2100 ~n:3 () in
  let result =
    Runner.run
      Fsa_actor.three_phase
      (config ~partition:p ~delay:(Delay.full ~t_max:t_unit) ())
  in
  let v = Verdict.of_result result in
  check Alcotest.bool "atomic" true v.atomic;
  check Alcotest.bool "blocked" true (v.blocked <> [])

(* ------------------------------------------------------------------ *)
(* Extended 2PC: resilient for n=2, broken for n=3 (Section 3)         *)
(* ------------------------------------------------------------------ *)

let small_grid ~n =
  let base = Runner.default_config ~n ~t_unit () in
  let grid = Scenario.default_grid ~n ~t_unit in
  Scenario.configs ~base grid

let test_ext2pc_two_site_resilient () =
  let summary = Sweep.run Fsa_actor.ext_two_phase (small_grid ~n:2) in
  check Alcotest.int "no violations" 0 summary.violations;
  check Alcotest.int "no blocked runs" 0 summary.blocked_runs

let test_ext2pc_multisite_violates () =
  let summary = Sweep.run Fsa_actor.ext_two_phase (small_grid ~n:3) in
  check Alcotest.bool "violations found" true (summary.violations > 0)

let test_ext2pc_specific_counterexample () =
  (* Commits in flight to both slaves; the partition bounces commit3:
     site2 commits on its command while the master, seeing UD(commit3),
     aborts — the Section 3 observation transported to the Fig. 2
     protocol. *)
  let p = partition ~g2:[ 3 ] ~at:2100 ~n:3 () in
  let result =
    Runner.run
      Fsa_actor.ext_two_phase
      (config ~partition:p ~delay:(Delay.full ~t_max:t_unit) ())
  in
  check decision_t "site2 committed" (Some Types.Commit)
    (Runner.site_result result (site 2)).decision;
  check decision_t "master aborted" (Some Types.Abort)
    (Runner.site_result result (site 1)).decision

(* ------------------------------------------------------------------ *)
(* 3PC + rules: both resolutions break (Lemma 3)                       *)
(* ------------------------------------------------------------------ *)

let test_3pc_rules_paper_counterexample () =
  (* The paper's own scenario: partitioning renders prepare3
     undeliverable; site3 times out in w3 and aborts while the p side
     commits. *)
  let p = partition ~g2:[ 3 ] ~at:2100 ~n:3 () in
  let result =
    Runner.run
      Fsa_actor.three_phase_rules
      (config ~partition:p ~delay:(Delay.full ~t_max:t_unit) ())
  in
  check decision_t "site3 aborted" (Some Types.Abort)
    (Runner.site_result result (site 3)).decision;
  check decision_t "master committed" (Some Types.Commit)
    (Runner.site_result result (site 1)).decision;
  check decision_t "site2 committed" (Some Types.Commit)
    (Runner.site_result result (site 2)).decision

let test_3pc_rules_strict_survives_singleton_cuts () =
  (* The mechanically-derived strawman is consistent when G2 is a single
     slave... *)
  let base = Runner.default_config ~n:3 ~t_unit () in
  let grid =
    {
      (Scenario.default_grid ~n:3 ~t_unit) with
      Scenario.cuts = [ Site_id.set_of_ints [ 2 ]; Site_id.set_of_ints [ 3 ] ];
    }
  in
  let summary =
    Sweep.run Fsa_actor.three_phase_rules_strict (Scenario.configs ~base grid)
  in
  check Alcotest.int "no violations on singleton cuts" 0 summary.violations

let test_3pc_rules_strict_breaks_on_split_acks () =
  (* ... but a two-slave cut can split the acks: one G2 slave acked
     before the partition (commits on p-timeout), the other's ack
     bounced (master aborts on p1 timeout). *)
  let summary = Sweep.run Fsa_actor.three_phase_rules_strict (small_grid ~n:3) in
  check Alcotest.bool "violations on {2,3} cuts" true (summary.violations > 0)

let test_3pc_rules_never_blocks () =
  let summary = Sweep.run Fsa_actor.three_phase_rules (small_grid ~n:3) in
  check Alcotest.int "no blocked runs" 0 summary.blocked_runs

(* ------------------------------------------------------------------ *)
(* Quorum baseline                                                     *)
(* ------------------------------------------------------------------ *)

let test_quorum_values () =
  let open Inquiry in
  check Alcotest.int "q_c n=3" 2 (commit_quorum one_vote ~n:3);
  check Alcotest.int "q_a n=3" 2 (abort_quorum one_vote ~n:3);
  check Alcotest.int "q_c n=5" 3 (commit_quorum one_vote ~n:5);
  check Alcotest.bool "q_c + q_a > n" true
    (commit_quorum one_vote ~n:4 + abort_quorum one_vote ~n:4 > 4)

let test_quorum_majority_decides_minority_blocks () =
  (* n=5, G2={4,5}: majority side terminates, minority blocks. *)
  let p = partition ~g2:[ 4; 5 ] ~at:2100 ~n:5 () in
  let result =
    Runner.run Inquiry.quorum
      (config ~n:5 ~partition:p ~delay:(Delay.full ~t_max:t_unit) ())
  in
  let v = Verdict.of_result result in
  check Alcotest.bool "atomic" true v.atomic;
  List.iter
    (fun s ->
      check Alcotest.bool
        (Format.asprintf "%a decided" Site_id.pp s)
        true
        ((Runner.site_result result s).decision <> None))
    [ site 1; site 2; site 3 ];
  check Alcotest.bool "minority blocked" true (v.blocked <> [])

let test_quorum_never_violates () =
  let summary = Sweep.run Inquiry.quorum (small_grid ~n:3) in
  check Alcotest.int "no violations" 0 summary.violations;
  check Alcotest.bool "but blocking happens" true (summary.blocked_runs > 0)

let test_quorum_transient_eventually_decides () =
  (* The re-poll loop drains after the heal: nobody stays blocked. *)
  let p = partition ~g2:[ 2 ] ~at:2100 ~heals_after:12000 ~n:3 () in
  let result =
    Runner.run Inquiry.quorum
      (config ~partition:p ~delay:(Delay.full ~t_max:t_unit) ())
  in
  let v = Verdict.of_result result in
  check Alcotest.bool "resilient after heal" true (Verdict.resilient v)

let heavy_master site = if Site_id.is_master site then 3 else 1

let test_weighted_quorum_shifts_liveness () =
  (* n=4, master weight 3 (total 6, V_C=4, V_A=3).  Cut {3,4} during the
     ack phase: the master's side has weight 4 and can commit, where the
     uniform weighting (side size 2 < 3) blocks. *)
  check Alcotest.int "V_C" 4 (Inquiry.commit_quorum heavy_master ~n:4);
  check Alcotest.int "V_A" 3 (Inquiry.abort_quorum heavy_master ~n:4);
  check Alcotest.bool "V_C + V_A > total" true
    (Inquiry.commit_quorum heavy_master ~n:4
     + Inquiry.abort_quorum heavy_master ~n:4
    > Inquiry.total_weight heavy_master ~n:4);
  let p = partition ~g2:[ 3; 4 ] ~at:3050 ~n:4 () in
  let cfg = config ~n:4 ~partition:p ~delay:(Delay.full ~t_max:t_unit) () in
  let uniform = Runner.run Inquiry.quorum cfg in
  let weighted = Runner.run (Inquiry.weighted_quorum heavy_master) cfg in
  let v_uniform = Verdict.of_result uniform in
  let v_weighted = Verdict.of_result weighted in
  check Alcotest.bool "uniform G1 blocked" true
    (List.mem (site 1) v_uniform.Verdict.blocked);
  check Alcotest.bool "weighted G1 decided" true
    ((Runner.site_result weighted (site 1)).decision <> None);
  check Alcotest.bool "weighted G2 still blocked" true
    (List.mem (site 3) v_weighted.Verdict.blocked
    || List.mem (site 4) v_weighted.Verdict.blocked);
  check Alcotest.bool "both atomic" true
    (v_uniform.Verdict.atomic && v_weighted.Verdict.atomic)

(* Universal safety: the quorum baseline never violates atomicity, under
   random simple or multiple partitions at random instants. *)
let quorum_universal_safety =
  QCheck.Test.make ~count:150 ~name:"quorum commit is atomic under any partitioning"
    QCheck.(triple (int_range 0 10000) small_nat bool)
    (fun (at, seed, multiple) ->
      let n = 5 in
      let rng = Rng.create (Int64.of_int (seed + 3)) in
      let partition_of () =
        if multiple then
          (* random partition into 3 cells *)
          let cells = [ ref []; ref []; ref [] ] in
          List.iter
            (fun s ->
              let c = List.nth cells (Rng.int rng ~bound:3) in
              c := s :: !c)
            (Site_id.all ~n);
          let groups =
            List.filter_map
              (fun c -> if !c = [] then None else Some (Site_id.Set.of_list !c))
              cells
          in
          if List.length groups < 2 then Partition.none
          else
            Partition.make_multiple ~groups ~starts_at:(Vtime.of_int at) ~n ()
        else
          let slaves = List.filter (fun _ -> Rng.bool rng) (Site_id.slaves ~n) in
          match slaves with
          | [] -> Partition.none
          | g2 ->
              Partition.make ~group2:(Site_id.Set.of_list g2)
                ~starts_at:(Vtime.of_int at) ~n ()
      in
      let cfg =
        config ~n
          ~partition:(partition_of ())
          ~seed:(Int64.of_int ((seed * 31) + 1))
          ()
      in
      let v = Verdict.of_result (Runner.run Inquiry.quorum cfg) in
      v.Verdict.atomic)

(* ------------------------------------------------------------------ *)
(* Skeen's cooperative termination (reference [4])                     *)
(* ------------------------------------------------------------------ *)

let test_skeen_survives_master_failure () =
  (* The class it was designed for: the master dies at any instant, no
     partition.  Every operational site decides, consistently. *)
  List.iter
    (fun at ->
      List.iter
        (fun delay ->
          List.iter
            (fun seed ->
              let cfg = config ~n:4 ~delay ~seed () in
              let cfg =
                {
                  cfg with
                  Runner.crashes = [ (site 1, Vtime.of_int at) ];
                }
              in
              let result = Runner.run Inquiry.skeen cfg in
              let v = Verdict.of_result result in
              check Alcotest.bool
                (Printf.sprintf "atomic (crash at %d)" at)
                true v.atomic;
              check Alcotest.(list int)
                (Printf.sprintf "nothing blocked (crash at %d)" at)
                []
                (List.map Site_id.to_int v.blocked))
            [ 1L; 42L ])
        [ Delay.minimal; Delay.full ~t_max:t_unit; Delay.uniform ~t_max:t_unit ])
    [ 100; 700; 1300; 1900; 2500; 3100; 3700; 4300; 4900 ]

let test_skeen_survives_slave_failure () =
  List.iter
    (fun at ->
      let cfg = config ~n:4 ~delay:(Delay.full ~t_max:t_unit) () in
      let cfg = { cfg with Runner.crashes = [ (site 3, Vtime.of_int at) ] } in
      let result = Runner.run Inquiry.skeen cfg in
      let v = Verdict.of_result result in
      check Alcotest.bool (Printf.sprintf "atomic (slave dies at %d)" at) true
        v.atomic;
      check Alcotest.bool
        (Printf.sprintf "survivors decide (slave dies at %d)" at)
        true (v.blocked = []))
    [ 500; 1500; 2500; 3500; 4500 ]

let test_skeen_breaks_under_partition () =
  (* ... and the reason this paper exists: the same protocol is
     inconsistent under a simple network partition, because each side
     terminates over different evidence. *)
  let summary = Sweep.run Inquiry.skeen (small_grid ~n:3) in
  check Alcotest.bool "violations under partitions" true
    (summary.violations > 0)

(* ------------------------------------------------------------------ *)
(* Direct actor-level tests: hand-fed deliveries, recorded sends       *)
(* ------------------------------------------------------------------ *)

type actor_probe = {
  engine : Engine.t;
  sent : (Site_id.t * Types.msg) list ref;
  decided : Types.decision option ref;
}

let make_probe_ctx ~self ~n =
  let engine = Engine.create ~trace:(Trace.create ~enabled:false ()) () in
  let sent = ref [] and decided = ref None in
  let ctx =
    Ctx.make ~engine ~n ~t_unit ~self ~trans_id:1
      ~send:(fun dst msg -> sent := (dst, msg) :: !sent)
      ~on_decide:(fun d -> decided := Some d)
      ~on_reason:(fun _ -> ())
      ()
  in
  (ctx, { engine; sent; decided })

module Two_phase = (val Fsa_actor.two_phase)

let deliver_to actor msg ~src ~dst =
  Two_phase.on_delivery actor
    (Network.Msg { Network.src; dst; payload = msg; sent_at = Vtime.zero })

let test_actor_2pc_master_steps () =
  let ctx, probe = make_probe_ctx ~self:(site 1) ~n:3 in
  let master = Two_phase.create ctx Site.Master_role in
  check Alcotest.string "starts in q1" "q1" (Two_phase.state_name master);
  Two_phase.begin_transaction master;
  check Alcotest.string "now w1" "w1" (Two_phase.state_name master);
  check Alcotest.int "xact to both slaves" 2 (List.length !(probe.sent));
  deliver_to master Types.Yes ~src:(site 2) ~dst:(site 1);
  check Alcotest.string "still w1 after one vote" "w1"
    (Two_phase.state_name master);
  check Alcotest.bool "undecided" true (!(probe.decided) = None);
  deliver_to master Types.Yes ~src:(site 3) ~dst:(site 1);
  check Alcotest.string "c1 after all votes" "c1" (Two_phase.state_name master);
  check Alcotest.bool "decided commit" true
    (!(probe.decided) = Some Types.Commit);
  (* 2 xacts + 2 commits *)
  check Alcotest.int "commands sent" 4 (List.length !(probe.sent))

let test_actor_2pc_master_abort_on_no () =
  let ctx, probe = make_probe_ctx ~self:(site 1) ~n:3 in
  let master = Two_phase.create ctx Site.Master_role in
  Two_phase.begin_transaction master;
  deliver_to master Types.No ~src:(site 3) ~dst:(site 1);
  check Alcotest.string "a1" "a1" (Two_phase.state_name master);
  check Alcotest.bool "decided abort" true (!(probe.decided) = Some Types.Abort);
  (* a straggler vote afterwards is ignored *)
  deliver_to master Types.Yes ~src:(site 2) ~dst:(site 1);
  check Alcotest.string "still a1" "a1" (Two_phase.state_name master)

let test_actor_2pc_slave_steps () =
  let ctx, probe = make_probe_ctx ~self:(site 2) ~n:3 in
  let slave = Two_phase.create ctx (Site.Slave_role { vote_yes = true }) in
  Two_phase.begin_transaction slave;
  (* begin_transaction is master-only: slaves must ignore it *)
  check Alcotest.string "slaves ignore begin" "q" (Two_phase.state_name slave);
  deliver_to slave Types.Xact ~src:(site 1) ~dst:(site 2);
  check Alcotest.string "voted, in w" "w" (Two_phase.state_name slave);
  check Alcotest.bool "sent yes" true
    (List.mem (site 1, Types.Yes) !(probe.sent));
  (* duplicate xact is ignored *)
  deliver_to slave Types.Xact ~src:(site 1) ~dst:(site 2);
  check Alcotest.int "no duplicate vote" 1 (List.length !(probe.sent));
  deliver_to slave Types.Commit_cmd ~src:(site 1) ~dst:(site 2);
  check Alcotest.string "committed" "c" (Two_phase.state_name slave);
  check Alcotest.bool "decided" true (!(probe.decided) = Some Types.Commit)

let test_actor_2pc_slave_command_overtakes_xact () =
  (* The network gives no FIFO guarantee: an abort command may arrive
     before the transaction itself.  The slave must obey it rather than
     wait forever. *)
  let ctx, probe = make_probe_ctx ~self:(site 3) ~n:3 in
  let slave = Two_phase.create ctx (Site.Slave_role { vote_yes = true }) in
  deliver_to slave Types.Abort_cmd ~src:(site 1) ~dst:(site 3);
  check Alcotest.string "aborted from q" "a" (Two_phase.state_name slave);
  check Alcotest.bool "decided abort" true (!(probe.decided) = Some Types.Abort)

(* ------------------------------------------------------------------ *)
(* The generic FSA interpreter                                         *)
(* ------------------------------------------------------------------ *)

let test_fsa_actor_enumeration () =
  let fsa = Commit_fsa.Catalog.three_phase in
  (* 3pc waits in w1, p1, w, p; the slave's initial q is never entered *)
  check Alcotest.int "four waiting states" 4
    (List.length (Fsa_actor.waiting_states fsa));
  check Alcotest.int "4^4 assignments" 256
    (List.length (Fsa_actor.all_assignments fsa));
  let fsa2 = Commit_fsa.Catalog.two_phase in
  (* 2pc waits in w1, w *)
  check Alcotest.int "2pc waiting states" 2
    (List.length (Fsa_actor.waiting_states fsa2))

let test_fsa_actor_rejects_bad_assignment () =
  let fsa = Commit_fsa.Catalog.three_phase in
  let bad =
    {
      Fsa_actor.timeouts = [ ((Commit_fsa.Machine.Master, "c1"), `To_commit) ];
      uds = [];
    }
  in
  let raised =
    try
      ignore (Fsa_actor.make ~name:"bad" fsa bad);
      false
    with Invalid_argument _ -> true
  in
  check Alcotest.bool "final-state assignment rejected" true raised

let test_fsa_actor_failure_free_flows () =
  (* The interpreter handles votes and the happy path for each
     catalogued FSA. *)
  List.iter
    (fun fsa ->
      let timeouts =
        List.map (fun st -> (st, `To_abort)) (Fsa_actor.waiting_states fsa)
      in
      let proto =
        Fsa_actor.make ~name:"interp" fsa { Fsa_actor.timeouts; uds = [] }
      in
      let commit = Runner.run proto (config ()) in
      check Alcotest.bool
        (fsa.Commit_fsa.Machine.name ^ " commits failure-free")
        true
        (List.for_all (( = ) (Some Types.Commit)) (Runner.decisions commit));
      let abort =
        Runner.run proto (config ~votes:[ (site 2, false) ] ())
      in
      check Alcotest.bool
        (fsa.Commit_fsa.Machine.name ^ " aborts on a no vote")
        true
        (List.for_all (( = ) (Some Types.Abort)) (Runner.decisions abort)))
    Commit_fsa.Catalog.all

(* ------------------------------------------------------------------ *)
(* Types and Runner plumbing                                           *)
(* ------------------------------------------------------------------ *)

let test_types_pp () =
  let str m = Format.asprintf "%a" Types.pp_msg m in
  check Alcotest.string "xact" "xact" (str Types.Xact);
  check Alcotest.string "probe" "probe(t7,site3)"
    (str (Types.Probe { trans_id = 7; slave = site 3 }));
  check Alcotest.string "inquiry" "state-inquiry(site2)"
    (str (Types.State_inquiry { coordinator = site 2 }));
  check Alcotest.string "answer" "state-answer(prepared)"
    (str (Types.State_answer { phase = Types.Ph_prepared }));
  check Alcotest.string "tag" "probe"
    (Types.msg_tag (Types.Probe { trans_id = 1; slave = site 2 }));
  check Alcotest.bool "decision equality" true
    (Types.equal_decision Types.Commit Types.Commit);
  check Alcotest.bool "decision inequality" false
    (Types.equal_decision Types.Commit Types.Abort)

let test_runner_rejects_tiny_n () =
  let raised =
    try
      ignore (Runner.run Fsa_actor.two_phase (config ~n:1 ()));
      false
    with Invalid_argument _ -> true
  in
  check Alcotest.bool "n=1 rejected" true raised

let test_runner_horizon_cuts_off () =
  (* A horizon before the first timer leaves everyone undecided but the
     run still returns. *)
  let cfg = config ~delay:(Delay.full ~t_max:t_unit) () in
  let cfg =
    {
      cfg with
      Runner.horizon = Vtime.of_int 500;
      partition =
        Partition.make
          ~group2:(Site_id.set_of_ints [ 3 ])
          ~starts_at:Vtime.zero ~n:3 ();
    }
  in
  let result = Runner.run (module Termination.Static) cfg in
  check Alcotest.bool "nobody decided yet" true
    (List.for_all (( = ) None) (Runner.decisions result));
  check Alcotest.bool "clock within horizon" true (result.finished_at <= 500)

let test_runner_crash_exclusion () =
  (* A crashed site is flagged and excluded from the verdict. *)
  let cfg = config ~delay:(Delay.full ~t_max:t_unit) () in
  let cfg = { cfg with Runner.crashes = [ (site 3, Vtime.of_int 500) ] } in
  let result = Runner.run (module Termination.Static) cfg in
  check Alcotest.bool "crashed flag" true
    (Runner.site_result result (site 3)).crashed;
  let v = Verdict.of_result result in
  check Alcotest.(list int) "verdict crashed" [ 3 ]
    (List.map Site_id.to_int v.crashed);
  check Alcotest.bool "survivors consistent" true v.atomic

(* A crash site outside 1..n is rejected up front, naming the site,
   instead of failing mid-run with an array index error. *)
let test_runner_rejects_bad_crash_site () =
  let sent = ref 0 in
  let tap = function Network.Sent _ -> incr sent | _ -> () in
  let cfg = { (config ()) with Runner.crashes = [ (site 9, Vtime.of_int 100) ] } in
  Alcotest.check_raises "crash site out of range"
    (Invalid_argument "Runner.run: crash site 9 out of range (n=3)") (fun () ->
      ignore (Runner.run ~tap (module Termination.Static) cfg));
  check Alcotest.int "rejected before the run" 0 !sent

let test_runner_trace_toggle () =
  let on = Runner.run Fsa_actor.two_phase { (config ()) with Runner.trace_enabled = true } in
  let off = Runner.run Fsa_actor.two_phase (config ()) in
  check Alcotest.bool "trace recorded" true (Trace.length on.trace > 0);
  check Alcotest.int "trace suppressed" 0 (Trace.length off.trace)

let test_runner_deterministic_replay () =
  (* Two runs of the same seeded config must be indistinguishable: the
     same number of engine events and byte-identical rendered traces.
     This pins down the optimized engine/trace path — any hidden
     nondeterminism (hash order, physical time, allocation-dependent
     ordering) would show up here. *)
  let cfg =
    {
      (config ~n:5
         ~partition:
           (partition ~heals_after:3000 ~g2:[ 4; 5 ] ~at:2100 ~n:5 ())
         ~delay:(Delay.full ~t_max:t_unit) ())
      with
      Runner.trace_enabled = true;
    }
  in
  let a = Runner.run Inquiry.skeen cfg in
  let b = Runner.run Inquiry.skeen cfg in
  check Alcotest.int "same events_run" a.Runner.events_run
    b.Runner.events_run;
  check Alcotest.bool "ran a nontrivial schedule" true
    (a.Runner.events_run > 0);
  let render (r : Runner.result) = Format.asprintf "%a" Trace.pp r.trace in
  check Alcotest.string "byte-identical traces" (render a) (render b)

(* ------------------------------------------------------------------ *)
(* Ctx plumbing                                                        *)
(* ------------------------------------------------------------------ *)

let make_ctx () =
  let engine = Engine.create ~trace:(Trace.create ~enabled:false ()) () in
  let ctx =
    Ctx.make ~engine ~n:3 ~t_unit ~self:(site 2) ~trans_id:9
      ~send:(fun _ _ -> ())
      ~on_decide:(fun _ -> ())
      ~on_reason:(fun _ -> ())
      ()
  in
  (engine, ctx)

let test_ctx_decide_flip_raises () =
  let _, ctx = make_ctx () in
  Ctx.decide ctx Types.Commit;
  Ctx.decide ctx Types.Commit;
  (* idempotent *)
  check Alcotest.bool "decided" true (Ctx.decided ctx = Some Types.Commit);
  let raised =
    try
      Ctx.decide ctx Types.Abort;
      false
    with Failure _ -> true
  in
  check Alcotest.bool "flip raises" true raised

let test_ctx_timer_slot () =
  let engine, ctx = make_ctx () in
  let slot = Ctx.Timer_slot.create () in
  let fired = ref [] in
  Ctx.Timer_slot.set ctx slot ~mult_t:2 ~label:(Label.Static "a") (fun () -> fired := "a" :: !fired);
  check Alcotest.bool "armed" true (Ctx.Timer_slot.armed slot);
  (* Resetting replaces the pending timer. *)
  Ctx.Timer_slot.set ctx slot ~mult_t:3 ~label:(Label.Static "b") (fun () -> fired := "b" :: !fired);
  Engine.run engine;
  check Alcotest.(list string) "only b fired" [ "b" ] !fired;
  check Alcotest.int "at 3T" 3000 (Engine.now engine);
  check Alcotest.bool "disarmed after fire" false (Ctx.Timer_slot.armed slot);
  Ctx.Timer_slot.set ctx slot ~mult_t:1 ~label:(Label.Static "c") (fun () -> fired := "c" :: !fired);
  Ctx.Timer_slot.cancel slot;
  Engine.run engine;
  check Alcotest.(list string) "cancel works" [ "b" ] !fired

let () =
  Alcotest.run "commit_protocols"
    [
      ( "failure-free",
        [
          Alcotest.test_case "all protocols commit" `Slow
            test_all_commit_failure_free;
          Alcotest.test_case "all protocols abort on a no vote" `Quick
            test_all_abort_on_no_vote;
          Alcotest.test_case "2pc message count" `Quick test_2pc_message_count;
          Alcotest.test_case "3pc message count" `Quick test_3pc_message_count;
          Alcotest.test_case "decision within 5T" `Quick
            test_decision_time_failure_free;
        ] );
      ( "blocking",
        [
          Alcotest.test_case "2pc blocks under partition" `Quick
            test_2pc_blocks_under_partition;
          Alcotest.test_case "3pc blocks under partition" `Quick
            test_3pc_blocks_under_partition;
        ] );
      ( "ext2pc",
        [
          Alcotest.test_case "two-site resilient (sweep)" `Slow
            test_ext2pc_two_site_resilient;
          Alcotest.test_case "multisite violates (sweep)" `Slow
            test_ext2pc_multisite_violates;
          Alcotest.test_case "Section 3 counterexample" `Quick
            test_ext2pc_specific_counterexample;
        ] );
      ( "3pc+rules",
        [
          Alcotest.test_case "paper counterexample at n=3" `Quick
            test_3pc_rules_paper_counterexample;
          Alcotest.test_case "strict survives singleton cuts" `Slow
            test_3pc_rules_strict_survives_singleton_cuts;
          Alcotest.test_case "strict breaks on split acks" `Slow
            test_3pc_rules_strict_breaks_on_split_acks;
          Alcotest.test_case "rules never block" `Slow test_3pc_rules_never_blocks;
        ] );
      ( "quorum",
        [
          QCheck_alcotest.to_alcotest quorum_universal_safety;
          Alcotest.test_case "weighted votes shift liveness" `Quick
            test_weighted_quorum_shifts_liveness;
          Alcotest.test_case "quorum sizes" `Quick test_quorum_values;
          Alcotest.test_case "majority decides, minority blocks" `Quick
            test_quorum_majority_decides_minority_blocks;
          Alcotest.test_case "never violates, does block" `Slow
            test_quorum_never_violates;
          Alcotest.test_case "transient partition drains" `Quick
            test_quorum_transient_eventually_decides;
        ] );
      ( "skeen",
        [
          Alcotest.test_case "survives master failure" `Slow
            test_skeen_survives_master_failure;
          Alcotest.test_case "survives slave failure" `Quick
            test_skeen_survives_slave_failure;
          Alcotest.test_case "breaks under partition" `Slow
            test_skeen_breaks_under_partition;
        ] );
      ( "actors",
        [
          Alcotest.test_case "2pc master steps" `Quick test_actor_2pc_master_steps;
          Alcotest.test_case "2pc master aborts on no" `Quick
            test_actor_2pc_master_abort_on_no;
          Alcotest.test_case "2pc slave steps" `Quick test_actor_2pc_slave_steps;
          Alcotest.test_case "command overtaking xact" `Quick
            test_actor_2pc_slave_command_overtakes_xact;
        ] );
      ( "fsa-actor",
        [
          Alcotest.test_case "enumeration sizes" `Quick
            test_fsa_actor_enumeration;
          Alcotest.test_case "bad assignment rejected" `Quick
            test_fsa_actor_rejects_bad_assignment;
          Alcotest.test_case "failure-free flows interpret" `Quick
            test_fsa_actor_failure_free_flows;
        ] );
      ( "runner",
        [
          Alcotest.test_case "types pretty-printing" `Quick test_types_pp;
          Alcotest.test_case "rejects n=1" `Quick test_runner_rejects_tiny_n;
          Alcotest.test_case "horizon cutoff" `Quick test_runner_horizon_cuts_off;
          Alcotest.test_case "crash exclusion" `Quick test_runner_crash_exclusion;
          Alcotest.test_case "rejects a crash site outside 1..n" `Quick
            test_runner_rejects_bad_crash_site;
          Alcotest.test_case "trace toggle" `Quick test_runner_trace_toggle;
          Alcotest.test_case "deterministic replay" `Quick
            test_runner_deterministic_replay;
        ] );
      ( "ctx",
        [
          Alcotest.test_case "decision flip raises" `Quick
            test_ctx_decide_flip_raises;
          Alcotest.test_case "timer slot" `Quick test_ctx_timer_slot;
        ] );
    ]
