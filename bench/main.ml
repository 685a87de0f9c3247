(* The benchmark / reproduction harness.

   The paper (ICDE 1987) has no measurement tables; its "results" are
   nine figures — protocol FSAs (Figs 1, 2, 3, 8), the partition model
   (Fig 4), worst-case timing analyses (Figs 5, 6, 7, 9) — the Section 6
   case-bound table, and the theorems.  One section below regenerates
   the behavioural content of each: the same protocols, the same
   counterexamples, the same bounds, measured in the simulator.  A final
   section runs Bechamel micro-benchmarks of the simulator itself.

     dune exec bench/main.exe *)

open Bechamel

let t_unit = Vtime.of_int 1000

let t mult = mult * 1000

let section title = Format.printf "@.=== %s ===@." title

let row fmt = Format.printf fmt

let partition ?heals_after ~g2 ~at ~n () =
  let starts_at = Vtime.of_int at in
  Partition.make
    ?heals_at:
      (Option.map (fun h -> Vtime.add starts_at (Vtime.of_int h)) heals_after)
    ~group2:(Site_id.set_of_ints g2) ~starts_at ~n ()

let base_config ?(n = 3) () =
  let config = Runner.default_config ~n ~t_unit () in
  { config with Runner.trace_enabled = false }

let static_grid ~n =
  Scenario.configs ~base:(base_config ~n ()) (Scenario.default_grid ~n ~t_unit)

let transient_grid ~n =
  let grid = Scenario.default_grid ~n ~t_unit in
  let grid =
    {
      grid with
      Scenario.heals_after =
        [
          None;
          Some (Vtime.of_int (t 1));
          Some (Vtime.of_int (t 3));
          Some (Vtime.of_int (t 6));
        ];
    }
  in
  Scenario.configs ~base:(base_config ~n ()) grid

let pp_summary_line name (s : Sweep.summary) =
  row "  %-26s runs=%-5d violations=%-4d blocked=%-4d commit=%-5d abort=%-5d@."
    name s.runs s.violations s.blocked_runs s.committed s.aborted

(* ------------------------------------------------------------------ *)
(* Fig. 1 — two-phase commit                                           *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  section "Fig. 1 — the two-phase commit protocol";
  row "  paper: 2 phases; master decides when sending the command;@.";
  row "  blocking whenever an in-doubt site loses the master.@.";
  List.iter
    (fun n ->
      let result = Runner.run Fsa_actor.two_phase (base_config ~n ()) in
      let v = Verdict.of_result result in
      row "  n=%d failure-free: %d messages (3(n-1)=%d), outcome %s@." n
        result.net_stats.sent
        (3 * (n - 1))
        (match Verdict.outcome v with `Committed -> "commit" | _ -> "?"))
    [ 2; 3; 5; 8 ];
  let summary = Sweep.run Fsa_actor.two_phase (static_grid ~n:3) in
  pp_summary_line "2pc under partitions" summary;
  row "  -> consistent but blocks in %d/%d scenarios (the paper's motivation)@."
    summary.blocked_runs summary.runs

(* ------------------------------------------------------------------ *)
(* Fig. 2 — extended two-phase commit                                  *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  section "Fig. 2 — extended 2PC (timeout + UD transitions, two sites)";
  row "  The figure's protocol, rederived mechanically from Rule(a)/(b):@.";
  (match Commit_fsa.Catalog.find "ext2pc" with
  | Some protocol ->
      let analysis = Commit_fsa.Analysis.analyze protocol ~n:2 in
      Format.printf "%a" Commit_fsa.Augment.pp
        (Commit_fsa.Augment.apply_rules analysis)
  | None -> ());
  let s2 = Sweep.run Fsa_actor.ext_two_phase (static_grid ~n:2) in
  let s3 = Sweep.run Fsa_actor.ext_two_phase (static_grid ~n:3) in
  pp_summary_line "ext2pc n=2" s2;
  pp_summary_line "ext2pc n=3" s3;
  row "  paper: resilient for two sites, inconsistent for more.@.";
  row "  measured: n=2 -> %d violations; n=3 -> %d violations.@." s2.violations
    s3.violations

(* ------------------------------------------------------------------ *)
(* Fig. 3 — three-phase commit (and the Section 3/4 strawmen)          *)
(* ------------------------------------------------------------------ *)

let fig3 () =
  section "Fig. 3 — three-phase commit and the Rule(a)/(b) strawmen";
  (match Commit_fsa.Catalog.find "3pc" with
  | Some protocol ->
      let a = Commit_fsa.Analysis.analyze protocol ~n:3 in
      row
        "  Lemma 1: %s; Lemma 2: %s (3PC qualifies for a termination protocol)@."
        (if Commit_fsa.Analysis.lemma1_violations a = [] then "satisfied"
         else "violated")
        (if Commit_fsa.Analysis.lemma2_violations a = [] then "satisfied"
         else "violated")
  | None -> ());
  pp_summary_line "3pc (no augmentation)"
    (Sweep.run Fsa_actor.three_phase (static_grid ~n:3));
  pp_summary_line "3pc+rules (paper reading)"
    (Sweep.run Fsa_actor.three_phase_rules (static_grid ~n:3));
  pp_summary_line "3pc+rules-strict"
    (Sweep.run Fsa_actor.three_phase_rules_strict (static_grid ~n:3));
  pp_summary_line "3pc+rules-strict n=4"
    (Sweep.run Fsa_actor.three_phase_rules_strict (static_grid ~n:4));
  row "  paper (Lemma 3): timeout/UD transitions cannot make 3PC resilient;@.";
  row "  measured: plain 3PC blocks, both rule resolutions violate atomicity.@."

(* ------------------------------------------------------------------ *)
(* Fig. 4 — the simple-partition network model                         *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  section "Fig. 4 — simple partitioning with return of messages";
  row "  every message sent across boundary B during a partition must come@.";
  row "  back to its sender exactly once (optimistic model).@.";
  List.iter
    (fun n ->
      List.iter
        (fun cut ->
          let sent = ref 0 and delivered = ref 0 and bounced = ref 0 in
          let cross = ref 0 in
          let p = Partition.make ~group2:cut ~starts_at:Vtime.zero ~n () in
          let config = { (base_config ~n ()) with Runner.partition = p } in
          let tap = function
            | Network.Sent { env; _ } ->
                incr sent;
                if Partition.separated p ~at:Vtime.zero env.Network.src env.dst
                then incr cross
            | Network.Delivered _ -> incr delivered
            | Network.Bounced _ -> incr bounced
            | Network.Lost _ -> ()
          in
          ignore (Runner.run ~tap (module Termination.Static) config);
          row
            "  n=%d G2=%-16s sent=%-3d delivered=%-3d bounced=%-3d \
             cross-sends=%-3d conserved=%b@."
            n
            (Format.asprintf "%a" Site_id.pp_set cut)
            !sent !delivered !bounced !cross
            (!sent = !delivered + !bounced))
        (Scenario.all_cuts ~n))
    [ 3; 4 ]

(* ------------------------------------------------------------------ *)
(* Fig. 5 — timeout intervals (master 2T, slave 3T)                    *)
(* ------------------------------------------------------------------ *)

let fig5 () =
  section "Fig. 5 — timeout analysis (failure-free worst cases)";
  let max_vote_wait = ref 0 and max_prepare_wait = ref 0 in
  let max_commit_wait = ref 0 in
  let note_max r v = if v > !r then r := v in
  let measure seed delay =
    let config = { (base_config ~n:4 ()) with Runner.delay; seed } in
    let xact_at = ref 0 and prepare_sent = ref 0 in
    let w_enter = Hashtbl.create 8 and p_enter = Hashtbl.create 8 in
    let tap = function
      | Network.Sent { env; at } -> (
          match env.Network.payload with
          | Types.Xact -> xact_at := at
          | Types.Prepare -> prepare_sent := at
          | Types.Yes -> Hashtbl.replace w_enter env.src at
          | Types.Ack -> Hashtbl.replace p_enter env.src at
          | _ -> ())
      | Network.Delivered _ | Network.Bounced _ | Network.Lost _ -> ()
    in
    let result = Runner.run ~tap (module Termination.Static) config in
    (* The master had collected every vote by the time it sent the
       prepares; a slave's wait in w ends when it sends its ack, and in
       p when it decides. *)
    note_max max_vote_wait (!prepare_sent - !xact_at);
    Hashtbl.iter
      (fun src entered ->
        match Hashtbl.find_opt p_enter src with
        | Some acked -> note_max max_prepare_wait (acked - entered)
        | None -> ())
      w_enter;
    Hashtbl.iter
      (fun src acked ->
        match (Runner.site_result result src).decided_at with
        | Some at -> note_max max_commit_wait (at - acked)
        | None -> ())
      p_enter
  in
  List.iter
    (fun seed ->
      List.iter (measure (Int64.of_int seed))
        [ Delay.minimal; Delay.full ~t_max:t_unit; Delay.uniform ~t_max:t_unit ])
    (List.init 40 (fun i -> i + 1));
  row "  master wait for all votes : measured max %5d ticks, timeout 2T = %d@."
    !max_vote_wait (t 2);
  row "  slave wait in w (prepare) : measured max %5d ticks, timeout 3T = %d@."
    !max_prepare_wait (t 3);
  row "  slave wait in p (commit)  : measured max %5d ticks, timeout 3T = %d%s@."
    !max_commit_wait (t 3)
    (if !max_commit_wait > t 3 then
       "  (benign false timeout: probing recovers, see DESIGN.md)"
     else "")

(* ------------------------------------------------------------------ *)
(* Fig. 6 — master probe-collection window (5T)                        *)
(* ------------------------------------------------------------------ *)

let fig6 () =
  section "Fig. 6 — probe arrives within 5T of the first UD(prepare)";
  let max_lag = ref 0 and samples = ref 0 in
  List.iter
    (fun config ->
      let first_ud = ref None and probe_arrivals = ref [] in
      (* The tap carries exact event times: the instant the UD(prepare)
         reached the master and the instant each probe arrived. *)
      let tap = function
        | Network.Bounced { env; at }
          when env.Network.payload = Types.Prepare
               && Site_id.is_master env.Network.src -> (
            match !first_ud with None -> first_ud := Some at | Some _ -> ())
        | Network.Delivered { env; at } -> (
            match env.Network.payload with
            | Types.Probe _ when Site_id.is_master env.Network.dst ->
                probe_arrivals := at :: !probe_arrivals
            | _ -> ())
        | Network.Sent _ | Network.Bounced _ | Network.Lost _ -> ()
      in
      ignore (Runner.run ~tap (module Termination.Static) config);
      match !first_ud with
      | None -> ()
      | Some t0 ->
          List.iter
            (fun arrival ->
              if arrival >= t0 then begin
                incr samples;
                if arrival - t0 > !max_lag then max_lag := arrival - t0
              end)
            !probe_arrivals)
    (static_grid ~n:3 @ static_grid ~n:4);
  row "  probes measured against their window: %d@." !samples;
  row
    "  worst probe lag after the first UD(prepare): %d ticks; paper bound 5T \
     = %d@."
    !max_lag (t 5);
  row "  -> %s@." (if !max_lag <= t 5 then "bound holds" else "BOUND VIOLATED")

(* ------------------------------------------------------------------ *)
(* Fig. 7 — slave post-w window (6T)                                   *)
(* ------------------------------------------------------------------ *)

let fig7 () =
  section "Fig. 7 — a slave that timed out in w decides within 6T";
  let max_wait = ref 0 and samples = ref 0 in
  List.iter
    (fun config ->
      let yes_sent = Hashtbl.create 8 in
      let tap = function
        | Network.Sent { env; at } when env.Network.payload = Types.Yes ->
            Hashtbl.replace yes_sent env.Network.src at
        | Network.Sent _ | Network.Delivered _ | Network.Bounced _
        | Network.Lost _ ->
            ()
      in
      let result = Runner.run ~tap (module Termination.Static) config in
      Array.iter
        (fun (s : Runner.site_result) ->
          let through_w2 =
            List.exists
              (fun r -> r = "fact1-case2" || r = "w2-expired")
              s.reasons
          in
          if through_w2 then
            match (Hashtbl.find_opt yes_sent s.site, s.decided_at) with
            | Some sent, Some decided ->
                let timeout_at = sent + t 3 in
                incr samples;
                if decided - timeout_at > !max_wait then
                  max_wait := decided - timeout_at
            | _ -> ())
        result.sites)
    (static_grid ~n:3 @ static_grid ~n:4);
  row "  slaves that timed out in w and decided later: %d@." !samples;
  row "  worst wait after the w timeout: %d ticks; paper bound 6T = %d@."
    !max_wait (t 6);
  row "  -> %s@." (if !max_wait <= t 6 then "bound holds" else "BOUND VIOLATED")

(* ------------------------------------------------------------------ *)
(* Fig. 8 — the modified 3PC ablation                                  *)
(* ------------------------------------------------------------------ *)

let fig8 () =
  section "Fig. 8 — why the slave needs the w -> c transition";
  let with_fig8 = Sweep.run (module Termination.Static) (static_grid ~n:4) in
  let without =
    Sweep.run (module Termination.Static_without_fig8) (static_grid ~n:4)
  in
  pp_summary_line "termination (Fig. 8 slave)" with_fig8;
  pp_summary_line "termination without w->c" without;
  row "  paper: without the modification a G2 slave can miss the only commit@.";
  row "  it will ever receive.  measured: %d violations appear without it.@."
    without.violations

(* ------------------------------------------------------------------ *)
(* Fig. 9 + the Section 6 case table                                   *)
(* ------------------------------------------------------------------ *)

let sec6 () =
  section "Fig. 9 / Section 6 — per-case worst-case waits after a p timeout";
  let table = Hashtbl.create 8 in
  let note case wait =
    let runs, max_wait, unbounded =
      Option.value (Hashtbl.find_opt table case) ~default:(0, 0, 0)
    in
    let entry =
      match wait with
      | None -> (runs + 1, max_wait, unbounded + 1)
      | Some w -> (runs + 1, Stdlib.max max_wait w, unbounded)
    in
    Hashtbl.replace table case entry
  in
  List.iter
    (fun protocol ->
      Hashtbl.reset table;
      let configs = transient_grid ~n:3 @ transient_grid ~n:4 in
      List.iter
        (fun config ->
          let obs = Cases.observe protocol config in
          match obs.Cases.case with
          | None -> ()
          | Some case ->
              List.iter (fun (_, wait) -> note case wait) obs.Cases.probe_waits)
        configs;
      row "  --- %s ---@." (Site.name protocol);
      row "  %-10s %-8s %-24s %s@." "case" "probes" "measured max wait"
        "paper bound";
      List.iter
        (fun case ->
          match Hashtbl.find_opt table case with
          | None -> ()
          | Some (runs, max_wait, unbounded) ->
              row "  %-10s %-8d %-24s %s@." (Timing.case_name case) runs
                (if unbounded > 0 then
                   Printf.sprintf "%d unbounded (blocked)" unbounded
                 else Printf.sprintf "%d ticks" max_wait)
                (match Timing.case_bound_mult case with
                | Some b -> Printf.sprintf "%dT = %d" b (t b)
                | None -> (
                    match case with
                    | Timing.Case_3_2_2_2 -> "unbounded (hence the 5T rule)"
                    | Timing.Case_1 | Timing.Case_2_1 | Timing.Case_2_2_1
                    | Timing.Case_2_2_2 | Timing.Case_3_1 | Timing.Case_3_2_1
                    | Timing.Case_3_2_2_1 ->
                        "n/a (no slave waits in p)")))
        Timing.all_cases)
    [
      (module Termination.Static : Site.S);
      (module Termination.Transient : Site.S);
    ];
  row "  paper: only case 3.2.2.2 exceeds 5T; the transient variant commits@.";
  row "  after 5T and is therefore never blocked.@."

(* ------------------------------------------------------------------ *)
(* Theorem 9 — the resilience matrix                                   *)
(* ------------------------------------------------------------------ *)

let thm9 () =
  section "Theorem 9 — resilience to optimistic multisite simple partitioning";
  let protocols : (string * Site.packed * string) list =
    [
      ("2pc", Fsa_actor.two_phase, "blocks");
      ("ext2pc", Fsa_actor.ext_two_phase, "violates (n>2)");
      ("3pc", Fsa_actor.three_phase, "blocks");
      ("3pc+rules", Fsa_actor.three_phase_rules, "violates");
      ("3pc+rules-strict", Fsa_actor.three_phase_rules_strict, "violates");
      ("3pc-skeen (ref [4])", Inquiry.skeen, "violates");
      ("quorum", Inquiry.quorum, "blocks minority");
      ("termination", (module Termination.Static), "resilient");
      ("termination-transient", (module Termination.Transient), "resilient");
    ]
  in
  List.iter
    (fun n ->
      row "  -- n = %d --@." n;
      List.iter
        (fun (name, protocol, expectation) ->
          let s = Sweep.run protocol (static_grid ~n) in
          row "  %-24s violations=%-4d blocked=%-4d   paper: %s@." name
            s.violations s.blocked_runs expectation)
        protocols)
    [ 3; 4 ]

(* ------------------------------------------------------------------ *)
(* Window-necessity ablation: why 5T and 6T                            *)
(* ------------------------------------------------------------------ *)

let window_ablation () =
  section "Window ablation — the 5T collect and 6T wait windows are minimal";
  row "  the paper derives the master's probe-collection window (Fig. 6)@.";
  row "  and the slave's post-w wait (Fig. 7); shrink either and the@.";
  row "  protocol breaks on the grid:@.";
  row "  %-10s %-10s %-12s %-10s@." "collect" "wait" "violations" "blocked";
  List.iter
    (fun (collect, wait) ->
      let module P = Termination.With_windows (struct
        let collect_window_mult = collect

        let wait_window_mult = wait
      end) in
      let s =
        Sweep.run (module P) (static_grid ~n:3 @ static_grid ~n:4)
      in
      row "  %-10s %-10s %-12d %-10d%s@."
        (Printf.sprintf "%dT" collect)
        (Printf.sprintf "%dT" wait)
        s.violations s.blocked_runs
        (if collect = 5 && wait = 6 then "   <- the paper's values" else ""))
    [ (3, 6); (4, 6); (5, 4); (5, 5); (4, 5); (5, 6); (6, 7) ];
  row "  -> the collect window is minimal: at 3T or 4T it closes before@.";
  row "     legitimate probes land and the master mis-decides.  The grid@.";
  row "     cannot show that the 6T wait is needed, but a mixed-delay hop@.";
  row "     schedule does: with a 5T wait a G2 slave aborts while the master@.";
  row "     commits (EXPERIMENTS.md; test_termination.ml, window-ablation).@."

(* ------------------------------------------------------------------ *)
(* Lemma 3 — exhaustively: every augmentation of 3PC fails             *)
(* ------------------------------------------------------------------ *)

let lemma3 () =
  section "Lemma 3 — every timeout/UD augmentation of 3PC fails, exhaustively";
  let fsa = Commit_fsa.Catalog.three_phase in
  let assignments = Fsa_actor.all_assignments fsa in
  row "  3PC has %d waiting states -> %d possible assignments of@."
    (List.length (Fsa_actor.waiting_states fsa))
    (List.length assignments);
  row "  timeout and undeliverable-message outcomes.  Lemma 3: none is@.";
  row "  resilient.  Stage 1 kills most on 10 adversarial scenarios;@.";
  row "  stage 2 runs the survivors through the full n=3 grid.@.";
  let mk ?(votes = []) ~n ~g2 ~at ~delay () =
    {
      (base_config ~n ()) with
      Runner.partition = partition ~g2 ~at ~n ();
      delay;
      votes;
    }
  in
  let full = Delay.full ~t_max:t_unit in
  let mini_grid =
    [
      mk ~n:3 ~g2:[ 3 ] ~at:100 ~delay:full ();
      mk ~n:3 ~g2:[ 3 ] ~at:1100 ~delay:full ();
      mk ~n:3 ~g2:[ 3 ] ~at:2100 ~delay:full ();
      mk ~n:3 ~g2:[ 3 ] ~at:3050 ~delay:full ();
      mk ~n:3 ~g2:[ 3 ] ~at:4050 ~delay:full ();
      mk ~n:3 ~g2:[ 2; 3 ] ~at:250 ~delay:(Delay.uniform ~t_max:t_unit) ();
      mk ~n:3 ~g2:[ 2; 3 ] ~at:2100 ~delay:full ();
      mk ~n:4 ~g2:[ 3; 4 ] ~at:3050 ~delay:full ();
      mk ~n:3 ~g2:[ 3 ] ~at:1100 ~delay:full
        ~votes:[ (Site_id.of_int 2, false) ]
        ();
      mk ~n:3 ~g2:[ 3 ] ~at:2100 ~delay:full
        ~votes:[ (Site_id.of_int 3, false) ]
        ();
      (* and the protocol must still work failure-free *)
      { (base_config ~n:3 ()) with Runner.delay = full };
    ]
  in
  let resilient_on grid proto =
    List.for_all
      (fun (cfg : Runner.config) ->
        let result = Runner.run proto cfg in
        let v = Verdict.of_result result in
        Verdict.resilient v
        && ((not (Partition.group_count cfg.partition = 0))
           || Verdict.outcome v
              = (if cfg.votes = [] then `Committed else `Aborted)))
      grid
  in
  let survivors =
    List.filter
      (fun a -> resilient_on mini_grid (Fsa_actor.make ~name:"candidate" fsa a))
      assignments
  in
  row "  stage 1: %d/%d assignments survive the 10 scenarios@."
    (List.length survivors) (List.length assignments);
  let final_survivors =
    List.filter
      (fun a ->
        resilient_on (static_grid ~n:3) (Fsa_actor.make ~name:"candidate" fsa a))
      survivors
  in
  row "  stage 2: %d/%d survive the full n=3 grid (864 scenarios each)@."
    (List.length final_survivors) (List.length survivors);
  row "  -> %s@."
    (if final_survivors = [] then
       "no augmentation is resilient: Lemma 3 confirmed mechanically"
     else "LEMMA 3 REFUTED?! inspect the surviving assignments")

(* ------------------------------------------------------------------ *)
(* Theorem 10 — generalisation (static FSA check)                      *)
(* ------------------------------------------------------------------ *)

let thm10 () =
  section "Theorem 10 — which protocols admit such a termination protocol";
  row "  condition: no state concurrent with both outcomes (L1), no@.";
  row "  noncommittable state concurrent with a commit (L2).@.";
  List.iter
    (fun (protocol : Commit_fsa.Machine.t) ->
      List.iter
        (fun n ->
          let a = Commit_fsa.Analysis.analyze protocol ~n in
          row "  %-12s n=%d  Lemma1 %-9s Lemma2 %-9s -> %s@."
            protocol.Commit_fsa.Machine.name n
            (if Commit_fsa.Analysis.lemma1_violations a = [] then "holds"
             else "violated")
            (if Commit_fsa.Analysis.lemma2_violations a = [] then "holds"
             else "violated")
            (if Commit_fsa.Analysis.satisfies_lemmas a then "qualifies"
             else "does not qualify"))
        [ 2; 3 ])
    Commit_fsa.Catalog.all;
  row "  constructive check — the termination protocol derived from each@.";
  row "  FSA around its m, swept like Theorem 9:@.";
  List.iter
    (fun (fsa : Commit_fsa.Machine.t) ->
      match Termination.classify fsa with
      | Error why -> row "  %-10s rejected (%s)@." fsa.name why
      | Ok { m; _ } ->
          let module P = Termination.Make (struct
            let variant = Termination.Static

            let fsa = fsa

            let collect_window_mult = Timing.collect_window_mult

            let wait_window_mult = Timing.wait_window_mult
          end) in
          List.iter
            (fun n ->
              let s = Sweep.run (module P) (static_grid ~n) in
              row
                "  %-10s m=%s  %-18s n=%d: %d violations, %d blocked over %d \
                 scenarios@."
                fsa.name m P.name n s.violations s.blocked_runs s.runs)
            [ 3; 4 ])
    Commit_fsa.Catalog.all;
  row "  3pc and quorum3pc lack the Fig. 8 w -> c edge: their violations@.";
  row "  are the fig8 ablation's.@."

(* ------------------------------------------------------------------ *)
(* The second impossibility: multiple partitioning                     *)
(* ------------------------------------------------------------------ *)

let multi_partitioning () =
  section "Theorem (Sec. 2) — no protocol survives multiple partitioning";
  let grid =
    Scenario.multi_configs
      ~base:(base_config ~n:4 ())
      ~starts:(Scenario.instants ~t_unit ~until_mult:8 ~per_t:2)
      ~delays:
        [ Delay.minimal; Delay.full ~t_max:t_unit; Delay.uniform ~t_max:t_unit ]
      ~seeds:[ 1L; 42L ]
  in
  row "  all %d ways to split 4 sites into >= 3 groups, %d scenarios:@."
    (List.length (Scenario.all_multi_cuts ~n:4))
    (List.length grid);
  List.iter
    (fun (name, protocol) ->
      pp_summary_line name (Sweep.run protocol grid))
    [
      ("termination", (module Termination.Static : Site.S));
      ("termination-transient", (module Termination.Transient));
      ("quorum", Inquiry.quorum);
      ("2pc", Fsa_actor.two_phase);
    ]

(* ------------------------------------------------------------------ *)
(* Reference [4] — the complementary failure classes                   *)
(* ------------------------------------------------------------------ *)

let ref4 () =
  section "Reference [4] — Skeen's termination protocol vs this paper's";
  row "  the two termination protocols cover complementary failure classes@.";
  row "  (the paper's Section 7 point):@.";
  let crash_sweep protocol =
    (* the master dies at every instant of the protocol's life *)
    let violations = ref 0 and blocked = ref 0 and runs = ref 0 in
    List.iter
      (fun at ->
        List.iter
          (fun delay ->
            List.iter
              (fun seed ->
                let config =
                  {
                    (base_config ~n:4 ()) with
                    Runner.delay;
                    seed;
                    crashes = [ (Site_id.master, Vtime.of_int at) ];
                  }
                in
                let v = Verdict.of_result (Runner.run protocol config) in
                incr runs;
                if not v.Verdict.atomic then incr violations;
                if v.Verdict.blocked <> [] then incr blocked)
              [ 1L; 42L; 1987L ])
          [
            Delay.minimal; Delay.full ~t_max:t_unit; Delay.uniform ~t_max:t_unit;
          ])
      (List.init 24 (fun i -> 250 * (i + 1)));
    (!runs, !violations, !blocked)
  in
  let partition_sweep protocol =
    let s = Sweep.run protocol (static_grid ~n:4) in
    (s.Sweep.runs, s.Sweep.violations, s.Sweep.blocked_runs)
  in
  List.iter
    (fun (name, protocol) ->
      let cr, cv, cb = crash_sweep protocol in
      let pr, pv, pb = partition_sweep protocol in
      row "  %-18s master-crash: %d runs, %d violations, %d blocked@." name cr
        cv cb;
      row "  %-18s partition   : %d runs, %d violations, %d blocked@." "" pr pv
        pb)
    [
      ("3pc-skeen", Inquiry.skeen);
      ("termination", (module Termination.Static));
    ];
  row "  paper: Skeen's protocol terminates site failures but not partitions;@.";
  row "  this paper's does the reverse — hence the master-never-fails@.";
  row "  assumption and the impossibility of covering both at once.@."

(* ------------------------------------------------------------------ *)
(* Paxos Commit vs 3PC+termination (BENCH_paxos.json)                  *)
(* ------------------------------------------------------------------ *)

(* The head-to-head the new protocol family exists for: what does
   master-failure tolerance cost in messages and latency when nothing
   fails, and what does it buy when the master dies mid-protocol. *)
let paxos_bench ~smoke () =
  section "Paxos Commit vs 3PC+termination — the price of leader failover";
  let crash_instants =
    List.init (if smoke then 6 else 24) (fun i -> 250 * (i + 1))
  in
  let seeds = if smoke then [ 1L ] else [ 1L; 42L; 1987L ] in
  let delays =
    [ Delay.minimal; Delay.full ~t_max:t_unit; Delay.uniform ~t_max:t_unit ]
  in
  let fault_free_configs =
    List.concat_map
      (fun delay ->
        List.map
          (fun seed -> { (base_config ()) with Runner.delay; seed })
          seeds)
      delays
  in
  let crash_configs =
    List.concat_map
      (fun at ->
        List.concat_map
          (fun delay ->
            List.map
              (fun seed ->
                {
                  (base_config ()) with
                  Runner.delay;
                  seed;
                  crashes = [ (Site_id.master, Vtime.of_int at) ];
                })
              seeds)
          delays)
      crash_instants
  in
  let measure protocol configs =
    let runs = ref 0
    and decided = ref 0
    and committed = ref 0
    and blocked = ref 0
    and violations = ref 0
    and messages = ref 0
    and latencies = ref [] in
    List.iter
      (fun config ->
        let result = Runner.run protocol config in
        let v = Verdict.of_result result in
        incr runs;
        messages := !messages + result.net_stats.Network.sent;
        if not v.Verdict.atomic then incr violations;
        if v.Verdict.blocked <> [] then incr blocked
        else if v.Verdict.committed <> [] || v.Verdict.aborted <> [] then begin
          incr decided;
          if v.Verdict.committed <> [] then incr committed;
          match v.Verdict.max_decision_time with
          | Some at -> latencies := Vtime.to_int at :: !latencies
          | None -> ()
        end)
      configs;
    let stats = Stats.of_list !latencies in
    let per_decided =
      if !decided = 0 then nan
      else float_of_int !messages /. float_of_int !decided
    in
    ( !runs,
      !decided,
      !committed,
      !blocked,
      !violations,
      !messages,
      per_decided,
      stats )
  in
  let stats_json = function
    | None -> Export.Null
    | Some (s : Stats.t) ->
        Export.Obj
          [
            ("count", Export.Int s.count);
            ("min", Export.Int s.min);
            ("p50", Export.Int s.p50);
            ("p90", Export.Int s.p90);
            ("p95", Export.Int s.p95);
            ("p99", Export.Int s.p99);
            ("max", Export.Int s.max);
            ("mean", Export.Float s.mean);
          ]
  in
  let leg_json (runs, decided, committed, blocked, violations, messages, per, stats)
      =
    Export.Obj
      [
        ("runs", Export.Int runs);
        ("decided", Export.Int decided);
        ("committed", Export.Int committed);
        ("blocked", Export.Int blocked);
        ("violations", Export.Int violations);
        ("messages", Export.Int messages);
        ("messages_per_decided_txn", Export.Float per);
        ("decision_latency_ticks", stats_json stats);
      ]
  in
  let families =
    [
      ("paxos", Paxos_commit.protocol);
      ("paxos-f0", Paxos_commit.protocol_f0);
      ("termination-transient", (module Termination.Transient : Site.S));
    ]
  in
  let report_leg label
      (runs, decided, committed, blocked, violations, _, per, stats) =
    row
      "    %-13s %4d runs: %4d decided (%d committed), %3d blocked, %d \
       violations@."
      label runs decided committed blocked violations;
    row "    %-13s %.1f msgs/decided txn, latency %a@." "" per
      (Fmt.option ~none:(Fmt.any "-") (Stats.pp_in_t ~unit_t:t_unit))
      stats
  in
  let results =
    List.map
      (fun (name, protocol) ->
        let clean = measure protocol fault_free_configs in
        let crash = measure protocol crash_configs in
        row "  %s:@." name;
        report_leg "fault-free" clean;
        report_leg "master-crash" crash;
        (name, clean, crash))
      families
  in
  row "  paper family blocks or aborts when its master dies; Paxos (F=1)@.";
  row "  pays more messages per transaction and keeps deciding.@.";
  let json =
    Export.Obj
      [
        ("smoke", Export.Bool smoke);
        ("n", Export.Int 3);
        ("t_unit", Export.Int (Vtime.to_int t_unit));
        ( "families",
          Export.List
            (List.map
               (fun (name, clean, crash) ->
                 Export.Obj
                   [
                     ("name", Export.String name);
                     ("fault_free", leg_json clean);
                     ("master_crash", leg_json crash);
                   ])
               results) );
      ]
  in
  let oc = open_out "BENCH_paxos.json" in
  output_string oc (Export.to_string json);
  output_string oc "\n";
  close_out oc;
  row "  wrote BENCH_paxos.json@."

(* ------------------------------------------------------------------ *)
(* Assumption 2 — no back-to-back partitions                           *)
(* ------------------------------------------------------------------ *)

let assumption2 () =
  section "Assumption 2 — a second cut mid-termination breaks the protocol";
  let runs = ref 0 and violations = ref 0 and blocked = ref 0 in
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
                      let p =
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
                      in
                      let cfg =
                        { (base_config ~n:3 ()) with Runner.partition = p; delay }
                      in
                      let v =
                        Verdict.of_result
                          (Runner.run (module Termination.Transient) cfg)
                      in
                      incr runs;
                      if not v.Verdict.atomic then incr violations;
                      if v.Verdict.blocked <> [] then incr blocked)
                    [
                      Delay.minimal;
                      Delay.full ~t_max:t_unit;
                      Delay.uniform ~t_max:t_unit;
                    ])
                [ [ 2 ]; [ 2; 3 ]; [ 3 ] ])
            [ 100; 600; 1100 ])
        [ 500; 1000; 2000; 3000 ])
    (List.init 20 (fun i -> 250 * (i + 1)));
  row "  chained cuts (heal then re-cut before termination finishes):@.";
  row "  %d scenarios -> %d violations, %d blocked@." !runs !violations !blocked;
  row "  paper: \"there is no subsequent network partitioning before all@.";
  row "  the transactions affected by the previous partitioning have@.";
  row "  terminated\" — measured: dropping it breaks even the transient@.";
  row "  variant, exactly as assumed.@."

(* ------------------------------------------------------------------ *)
(* Section 7 — why the assumptions are necessary                       *)
(* ------------------------------------------------------------------ *)

let sec7 () =
  section "Section 7 — site failures concurrent with a partition break it";
  let per_link =
    Delay.Per_link
      (fun src dst ->
        match (Site_id.to_int src, Site_id.to_int dst) with
        | 1, 4 | 4, 1 -> Vtime.of_int 900
        | 1, 3 | 3, 1 -> Vtime.of_int 10
        | _, _ -> Vtime.of_int 100)
  in
  let config1 =
    {
      (base_config ~n:4 ()) with
      Runner.partition = partition ~g2:[ 3; 4 ] ~at:1815 ~n:4 ();
      delay = per_link;
      crashes = [ (Site_id.of_int 3, Vtime.of_int 1825) ];
    }
  in
  let r1 = Runner.run (module Termination.Static) config1 in
  row "  observation 1: G2's only prepared slave (site3) dies at 1825@.";
  row "    %a@." Verdict.pp (Verdict.of_result r1);
  let config2 =
    {
      (base_config ~n:4 ()) with
      Runner.partition = partition ~g2:[ 4 ] ~at:2100 ~n:4 ();
      delay = Delay.full ~t_max:t_unit;
      crashes = [ (Site_id.of_int 2, Vtime.of_int 3500) ];
    }
  in
  let r2 = Runner.run (module Termination.Static) config2 in
  row "  observation 2: G1 slave site2 dies after its prepare, before probing@.";
  row "    %a@." Verdict.pp (Verdict.of_result r2);
  row "  paper: no commit protocol is resilient to concurrent partitions and@.";
  row "  site failures (failures look like lost messages).@.";
  let grid =
    List.map
      (fun c -> { c with Runner.mode = Network.Pessimistic })
      (static_grid ~n:3)
  in
  let s = Sweep.run (module Termination.Static) grid in
  pp_summary_line "termination, messages LOST" s;
  row "  -> with message loss the protocol is no longer nonblocking:@.";
  row "     %d blocked runs (theorem: no resilient protocol exists there).@."
    s.blocked_runs

(* ------------------------------------------------------------------ *)
(* Database-level cost (the paper's motivation, quantified)            *)
(* ------------------------------------------------------------------ *)

let db_cost () =
  section "Database view — locks held behind a blocked commit protocol";
  let module Tm = Commit_db.Tm in
  let module Workload = Commit_db.Workload in
  let w =
    Workload.bank_transfers ~n:3 ~pairs:8 ~balance:1000 ~amount:70
      ~spacing:(Vtime.of_int 6000) ~seed:2024L
  in
  let p =
    Partition.make
      ~group2:(Site_id.set_of_ints [ 3 ])
      ~starts_at:(Vtime.of_int 20200) ~n:3 ()
  in
  let expected = Workload.expected_total w ~prefix:"acct:" in
  List.iter
    (fun (name, protocol) ->
      let config =
        {
          (Tm.default_config ~protocol ()) with
          Tm.initial = w.Workload.initial;
          partition = p;
          delay = Delay.full ~t_max:t_unit;
        }
      in
      let report = Tm.run config w.Workload.txns in
      row
        "  %-22s committed=%d aborted=%d blocked=%d torn=%d starved=%d  money \
         %d/%d@."
        name
        (Tm.count_status report Tm.Txn_committed)
        (Tm.count_status report Tm.Txn_aborted)
        (Tm.count_status report Tm.Txn_blocked)
        (Tm.count_status report Tm.Txn_torn)
        (Tm.count_status report Tm.Txn_waiting_locks)
        (Commit_db.Txn_core.money ~prefix:"acct:" report.Tm.stores)
        expected)
    [
      ("2pc", Fsa_actor.two_phase);
      ("ext2pc", Fsa_actor.ext_two_phase);
      ("quorum", Inquiry.quorum);
      ("termination", (module Termination.Static));
    ]

(* ------------------------------------------------------------------ *)
(* Decision-latency distributions                                      *)
(* ------------------------------------------------------------------ *)

let latency_distribution () =
  section "Decision latency under partitions (per-site, across the grid)";
  row "  how long a site waits for its verdict, in multiples of T:@.";
  List.iter
    (fun (name, protocol) ->
      let samples = ref [] in
      List.iter
        (fun config ->
          let result = Runner.run protocol config in
          Array.iter
            (fun (s : Runner.site_result) ->
              match s.decided_at with
              | Some at -> samples := at :: !samples
              | None -> ())
            result.sites)
        (static_grid ~n:3);
      match Stats.of_list !samples with
      | Some stats ->
          row "  %-24s %a@." name (Stats.pp_in_t ~unit_t:t_unit) stats
      | None -> row "  %-24s no decisions@." name)
    [
      ("2pc", Fsa_actor.two_phase);
      ("3pc", Fsa_actor.three_phase);
      ("quorum", Inquiry.quorum);
      ("termination", (module Termination.Static));
      ("termination-transient", (module Termination.Transient));
    ];
  row "  -> the termination protocol trades worst-case latency (the fixed@.";
  row "     5T/6T windows) for never blocking; quorum is faster when it can@.";
  row "     decide and infinitely slower when it cannot.@."

(* ------------------------------------------------------------------ *)
(* Scalability with the number of sites                                *)
(* ------------------------------------------------------------------ *)

let scalability () =
  section "Scalability — messages and decision latency vs. number of sites";
  row "  failure-free (full-T delays: every hop costs exactly T):@.";
  row "  %-4s %-28s %-28s %-28s@." "n" "2pc msgs/latency"
    "3pc msgs/latency" "termination msgs/latency";
  List.iter
    (fun n ->
      let cell protocol =
        let config =
          { (base_config ~n ()) with Runner.delay = Delay.full ~t_max:t_unit }
        in
        let result = Runner.run protocol config in
        let latest =
          Array.fold_left
            (fun acc (s : Runner.site_result) ->
              match s.decided_at with
              | Some at -> Stdlib.max acc at
              | None -> acc)
            0 result.sites
        in
        Printf.sprintf "%4d msgs, %2dT" result.net_stats.sent (latest / t 1)
      in
      row "  %-4d %-28s %-28s %-28s@." n
        (cell Fsa_actor.two_phase)
        (cell Fsa_actor.three_phase)
        (cell (module Termination.Static)))
    [ 2; 4; 8; 16; 32 ];
  row "@.  partitioned at 2.1T (half the slaves cut off), termination protocol:@.";
  List.iter
    (fun n ->
      let g2 =
        Site_id.Set.of_list
          (List.filteri (fun i _ -> i mod 2 = 1) (Site_id.slaves ~n))
      in
      let config =
        {
          (base_config ~n ()) with
          Runner.delay = Delay.full ~t_max:t_unit;
          partition =
            Partition.make ~group2:g2 ~starts_at:(Vtime.of_int (t 2 + 100)) ~n
              ();
        }
      in
      let result = Runner.run (module Termination.Static) config in
      let v = Verdict.of_result result in
      let latest =
        Array.fold_left
          (fun acc (s : Runner.site_result) ->
            match s.decided_at with Some at -> Stdlib.max acc at | None -> acc)
          0 result.sites
      in
      row "  n=%-3d |G2|=%-3d msgs=%-5d all decided by %2dT, %s@." n
        (Site_id.Set.cardinal g2) result.net_stats.sent (latest / t 1)
        (if Verdict.resilient v then "resilient" else "NOT RESILIENT"))
    [ 4; 8; 16; 32 ];
  row "  -> message cost stays linear in n; termination latency is bounded@.";
  row "     by the fixed windows (9-10T), independent of n.@."

(* ------------------------------------------------------------------ *)
(* Cluster steady state — sustained throughput around a partition      *)
(* ------------------------------------------------------------------ *)

let cluster_throughput () =
  section "Cluster runtime — steady-state throughput, with and without a cut";
  let module Cluster = Commit_cluster in
  row "  2000T of offered load (60 transfers/100T, window 8) through the@.";
  row "  transient termination protocol; the partitioned run cuts off site 3@.";
  row "  for 80T mid-run:@.";
  let config timeline =
    {
      (Cluster.Runtime.default_config ()) with
      Cluster.Runtime.duration = Vtime.of_int (t 2000);
      drain = Vtime.of_int (t 40);
      load = 60;
      timeline;
      bucket = Vtime.of_int (t 100);
    }
  in
  let cut =
    Partition.make
      ~group2:(Site_id.set_of_ints [ 3 ])
      ~starts_at:(Vtime.of_int (t 800))
      ~heals_at:(Vtime.of_int (t 880))
      ~n:3 ()
  in
  List.iter
    (fun (name, timeline) ->
      let report = Cluster.Runtime.run (config timeline) in
      let pct p =
        match report.Cluster.Runtime.latency with
        | Some s -> (
            match p with `P50 -> s.Stats.p50 | `P99 -> s.Stats.p99)
        | None -> 0
      in
      row
        "  %-14s committed=%-5d throughput=%.1f/100T p50=%.2fT p99=%.2fT \
         terminations=%d atomic=%b@."
        name report.Cluster.Runtime.committed
        report.Cluster.Runtime.throughput_per_100t
        (float_of_int (pct `P50) /. float_of_int (t 1))
        (float_of_int (pct `P99) /. float_of_int (t 1))
        report.Cluster.Runtime.termination_invocations
        (Cluster.Runtime.atomic report);
      row "  %s json: %s@." name
        (Format.asprintf "%a" Export.pp (Cluster.Runtime.to_json report)
        |> String.split_on_char '\n' |> String.concat " "))
    [ ("no partition", Partition.none); ("80T cut", cut) ];
  row "  -> the cut dents goodput for its window (termination aborts in@.";
  row "     bounded time, freeing the admission window); plain 2PC/3PC would@.";
  row "     wedge the window permanently — see `tp_sim cluster -p 2pc`.@."

(* ------------------------------------------------------------------ *)
(* Domain-parallel sweeps — wall-clock and determinism                 *)
(* ------------------------------------------------------------------ *)

(* Wall-clock, not Sys.time: CPU time is summed across domains and
   would hide any speedup. *)
let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let has_flag name = Array.exists (String.equal name) Sys.argv

let grid_from_argv ~smoke () =
  let v = ref (if smoke then "small" else "large") in
  Array.iteri
    (fun i arg ->
      if arg = "--grid" && i + 1 < Array.length Sys.argv then
        v := Sys.argv.(i + 1))
    Sys.argv;
  match !v with
  | "large" -> `Large
  | "small" -> `Small
  | other ->
      Printf.eprintf "warning: unknown --grid %s (want small|large)\n%!" other;
      if smoke then `Small else `Large

(* The jobs-curve bench: run the same sweep at 1/2/4/8 jobs and record
   wall time, per-domain throughput and byte-identity against the
   jobs=1 leg.  [run jobs] produces the summary; [to_json] serialises
   it (the identity check); effective domains are clamped exactly as
   the sweeps clamp. *)
let jobs_curve ~name ~runs ~jobs_list ~run ~to_json =
  let recommended = Domain.recommended_domain_count () in
  let legs =
    List.map
      (fun jobs ->
        let summary, secs = wall (fun () -> run jobs) in
        (jobs, Stdlib.min jobs recommended, secs, to_json summary))
      jobs_list
  in
  let base_secs, base_json =
    match legs with
    | (_, _, secs, json) :: _ -> (secs, json)
    | [] -> invalid_arg "jobs_curve: empty jobs list"
  in
  row "  %s (%d runs):@." name runs;
  let leg_json =
    List.map
      (fun (jobs, domains, secs, json) ->
        let rps = float_of_int runs /. secs in
        let identical = String.equal base_json json in
        row
          "    --jobs %d (%d domain%s)  %.3fs  %.0f runs/s  (%.0f per \
           domain)  speedup %.2fx  identical %b@."
          jobs domains
          (if domains = 1 then "" else "s")
          secs rps
          (rps /. float_of_int domains)
          (base_secs /. secs) identical;
        if not identical then
          row "  *** NONDETERMINISM: --jobs %d differs from --jobs 1 ***@."
            jobs;
        Export.Obj
          [
            ("jobs", Export.Int jobs);
            ("domains", Export.Int domains);
            ("seconds", Export.Float secs);
            ("runs_per_sec", Export.Float rps);
            ( "per_domain_runs_per_sec",
              Export.Float (rps /. float_of_int domains) );
            ("speedup", Export.Float (base_secs /. secs));
            ("identical", Export.Bool identical);
          ])
      legs
  in
  Export.Obj [ ("runs", Export.Int runs); ("curve", Export.List leg_json) ]

let parallel_sweeps ~smoke () =
  let recommended = Domain.recommended_domain_count () in
  let grid_size = grid_from_argv ~smoke () in
  let grid_name = match grid_size with `Small -> "small" | `Large -> "large" in
  let jobs_list = if smoke then [ 1; 2 ] else [ 1; 2; 4; 8 ] in
  section
    (Printf.sprintf
       "Domain-parallel sweeps — jobs curve %s on the %s grid (%d \
        recommended domain%s)"
       (String.concat "/" (List.map string_of_int jobs_list))
       grid_name recommended
       (if recommended = 1 then "" else "s"));
  (* Checker sweep: the Theorem-9 grid for the termination protocol;
     --grid large crosses it with heal timelines and ten seeds. *)
  let grid =
    match grid_size with
    | `Small -> static_grid ~n:3 @ static_grid ~n:4
    | `Large ->
        let configs ~n =
          Scenario.configs ~base:(base_config ~n ())
            (Scenario.large_grid ~n ~t_unit)
        in
        configs ~n:3 @ configs ~n:4
  in
  let sweep_json =
    jobs_curve ~name:"checker sweep" ~runs:(List.length grid) ~jobs_list
      ~run:(fun jobs -> Sweep.run ~jobs (module Termination.Static) grid)
      ~to_json:(fun s -> Export.to_string (Export.of_summary s))
  in
  (* Cluster sweep: seeds x timelines x policies x protocols, one
     runtime per task. *)
  let module Cluster = Commit_cluster in
  let base =
    {
      (Cluster.Runtime.default_config ()) with
      Cluster.Runtime.duration = Vtime.of_int (t 200);
      drain = Vtime.of_int (t 40);
      load = 40;
      bucket = Vtime.of_int (t 50);
    }
  in
  let cut =
    Partition.make
      ~group2:(Site_id.set_of_ints [ 3 ])
      ~starts_at:(Vtime.of_int (t 80))
      ~heals_at:(Vtime.of_int (t 110))
      ~n:3 ()
  in
  let cgrid =
    match grid_size with
    | `Small ->
        {
          Cluster.Cluster_sweep.base;
          seeds = List.init 6 (fun i -> Int64.of_int (i + 1));
          timelines = [ ("none", Partition.none); ("cut-80T", cut) ];
          policies = [ Cluster.Scheduler.Partition_aware ];
          protocols = [];
        }
    | `Large ->
        {
          Cluster.Cluster_sweep.base;
          seeds = List.init 10 (fun i -> Int64.of_int (i + 1));
          timelines = [ ("none", Partition.none); ("cut-80T", cut) ];
          policies =
            Cluster.Scheduler.[ Fixed_master; Round_robin; Partition_aware ];
          protocols =
            [
              ("transient", (module Termination.Transient : Site.S));
              ("paxos", Paxos_commit.protocol);
            ];
        }
  in
  let cruns = List.length (Cluster.Cluster_sweep.tasks cgrid) in
  let cluster_json =
    jobs_curve ~name:"cluster sweep" ~runs:cruns ~jobs_list
      ~run:(fun jobs -> Cluster.Cluster_sweep.run ~jobs cgrid)
      ~to_json:(fun s -> Export.to_string (Cluster.Cluster_sweep.to_json s))
  in
  let bench_json =
    Export.Obj
      [
        ("grid", Export.String grid_name);
        ("recommended_domains", Export.Int recommended);
        ("sweep", sweep_json);
        ("cluster", cluster_json);
      ]
  in
  let oc = open_out "BENCH_sweep.json" in
  output_string oc (Export.to_string bench_json);
  output_string oc "\n";
  close_out oc;
  row "  wrote BENCH_sweep.json@."

(* ------------------------------------------------------------------ *)
(* Soak throughput: faults on vs. off (BENCH_soak.json)                *)
(* ------------------------------------------------------------------ *)

(* The price of the fault schedule: both legs derive from the same soak
   seed, so (the workload seed being the first unconditional draw) they
   run identical arrival processes — the throughput delta is purely the
   cuts, crash-recover windows and delay jitter. *)
let soak_bench ~smoke () =
  let module Soak = Commit_cluster.Soak in
  section
    (Printf.sprintf "Soak throughput: faults on vs. off%s"
       (if smoke then " (smoke mode)" else ""));
  let epochs = if smoke then 3 else 8 in
  let segment = Vtime.of_int (t (if smoke then 100 else 200)) in
  let config =
    { (Soak.default_config ()) with Soak.seed = 1987L; epochs; segment }
  in
  let leg faults =
    let cfg = { config with Soak.faults } in
    let summary, seconds = wall (fun () -> Soak.run cfg) in
    let txns_per_s = float_of_int summary.Soak.settled /. seconds in
    row "  faults %-3s %d epochs x %d ticks: settled=%d committed=%d \
         conserved=%b  %.0f txns/s@."
      (if faults then "on" else "off")
      epochs (Vtime.to_int segment) summary.Soak.settled
      summary.Soak.committed (Soak.conserved summary) txns_per_s;
    (cfg, summary, seconds, txns_per_s)
  in
  let _, on_summary, on_s, on_tps = leg true in
  let _, off_summary, off_s, off_tps = leg false in
  let slowdown = if on_tps > 0. then off_tps /. on_tps else nan in
  row "  fault-schedule slowdown: %.2fx (identical workload seeds)@." slowdown;
  let leg_json (summary : Soak.summary) seconds tps =
    Export.Obj
      [
        ("settled", Export.Int summary.Soak.settled);
        ("committed", Export.Int summary.Soak.committed);
        ("aborted", Export.Int summary.Soak.aborted);
        ("torn", Export.Int summary.Soak.torn);
        ("crashes", Export.Int summary.Soak.crashes);
        ("recoveries", Export.Int summary.Soak.recoveries);
        ("cut_phases", Export.Int summary.Soak.cut_phases);
        ("conserved", Export.Bool (Soak.conserved summary));
        ("seconds", Export.Float seconds);
        ("txns_per_s", Export.Float tps);
      ]
  in
  let bench_json =
    Export.Obj
      [
        ("smoke", Export.Bool smoke);
        ("seed", Export.String (Int64.to_string config.Soak.seed));
        ("epochs", Export.Int epochs);
        ("segment_ticks", Export.Int (Vtime.to_int segment));
        ("faults_on", leg_json on_summary on_s on_tps);
        ("faults_off", leg_json off_summary off_s off_tps);
        ("slowdown", Export.Float slowdown);
      ]
  in
  let oc = open_out "BENCH_soak.json" in
  output_string oc (Export.to_string bench_json);
  output_string oc "\n";
  close_out oc;
  row "  wrote BENCH_soak.json@."

(* ------------------------------------------------------------------ *)
(* Engine throughput and GC cost per event (BENCH_engine.json)         *)
(* ------------------------------------------------------------------ *)

(* Events/sec and allocation per event are the binding constraint on
   every sweep (BENCH_sweep.json showed parallelism cannot save a 1-core
   container), so this section measures the discrete-event core end to
   end: a raw schedule/pop churn, the paper's 3PC-family protocols under
   a partition, and a cluster steady-state run — each with tracing off
   and on.  [Gc.allocated_bytes] counts every minor allocation whether
   or not it survives, which is exactly the hot-path metric. *)

let engine_bench ~smoke () =
  section
    (Printf.sprintf "Engine — events/sec and GC cost per event%s"
       (if smoke then " (smoke mode)" else ""));
  let scale n = if smoke then max 1 (n / 20) else n in
  let measure ~name ~trace ~iters run_once =
    ignore (run_once ());
    Gc.full_major ();
    let stat0 = Gc.quick_stat () in
    let bytes0 = Gc.allocated_bytes () in
    let t0 = Unix.gettimeofday () in
    let events = ref 0 in
    for _ = 1 to iters do
      events := !events + run_once ()
    done;
    let seconds = Unix.gettimeofday () -. t0 in
    let bytes1 = Gc.allocated_bytes () in
    let stat1 = Gc.quick_stat () in
    let ev = float_of_int !events in
    let events_per_sec = ev /. seconds in
    let bytes_per_event = (bytes1 -. bytes0) /. ev in
    let minor_per_kevent =
      float_of_int (stat1.Gc.minor_collections - stat0.Gc.minor_collections)
      *. 1000. /. ev
    in
    row "  %-24s trace=%-3s %10.0f ev/s %8.1f B/ev %7.2f minor-gc/1k-ev@."
      name trace events_per_sec bytes_per_event minor_per_kevent;
    ( events_per_sec,
      Export.Obj
        [
          ("name", Export.String name);
          ("trace", Export.String trace);
          ("iters", Export.Int iters);
          ("events", Export.Int !events);
          ("seconds", Export.Float seconds);
          ("events_per_sec", Export.Float events_per_sec);
          ("bytes_per_event", Export.Float bytes_per_event);
          ("minor_gc_per_1k_events", Export.Float minor_per_kevent);
        ] )
  in
  (* Raw engine churn: schedule/pop only, no protocol on top. *)
  let churn () =
    let e = Engine.create ~trace:(Trace.create ~enabled:false ()) () in
    for i = 1 to 10_000 do
      ignore
        (Engine.schedule e
           ~rank:(if i land 1 = 0 then Engine.Delivery else Engine.Timer)
           ~delay:(Vtime.of_int ((i mod 97) + 1))
           ~label:(Label.Static "churn") ignore)
    done;
    Engine.run e;
    Engine.events_run e
  in
  (* The paper's protocols under a mid-W1 partition that heals 3T
     later, with full delay variability and n = 5.  The config is built
     ONCE, outside the measured loop: [Delay.full] and [Partition.make]
     allocate far more than a whole trace-off run, and rebuilding them
     per iteration would drown the engine in harness noise. *)
  let protocol_config trace_enabled =
    {
      (base_config ~n:5 ()) with
      Runner.partition =
        partition ~heals_after:(t 3) ~g2:[ 4; 5 ] ~at:2100 ~n:5 ();
      delay = Delay.full ~t_max:t_unit;
      trace_enabled;
    }
  in
  let protocol_off = protocol_config false in
  let protocol_on = protocol_config true in
  let protocol_run protocol config () =
    (Runner.run protocol config).Runner.events_run
  in
  (* Cluster steady state: many concurrent transactions, watchdogs,
     scheduler pump — the long-running workload from PR 1. *)
  let module Cluster = Commit_cluster in
  let cluster_config trace_enabled =
    {
      (Cluster.Runtime.default_config ()) with
      Cluster.Runtime.duration = Vtime.of_int (t 100);
      drain = Vtime.of_int (t 30);
      load = 40;
      bucket = Vtime.of_int (t 25);
      trace_enabled;
    }
  in
  let cluster_off = cluster_config false in
  let cluster_on = cluster_config true in
  let cluster_run config () =
    (Cluster.Runtime.run config).Cluster.Runtime.events_run
  in
  (* Explicit lets: list literals evaluate right-to-left, which would
     print the rows in reverse. *)
  let ev1, s1 =
    measure ~name:"engine-churn" ~trace:"off" ~iters:(scale 200) (fun () ->
        churn ())
  in
  ignore ev1;
  let off2, s2 =
    measure ~name:"3pc-partition" ~trace:"off" ~iters:(scale 2000)
      (protocol_run Fsa_actor.three_phase protocol_off)
  in
  let on3, s3 =
    measure ~name:"3pc-partition" ~trace:"on" ~iters:(scale 2000)
      (protocol_run Fsa_actor.three_phase protocol_on)
  in
  let off4, s4 =
    measure ~name:"termination-partition" ~trace:"off" ~iters:(scale 2000)
      (protocol_run (module Termination.Static) protocol_off)
  in
  let on5, s5 =
    measure ~name:"termination-partition" ~trace:"on" ~iters:(scale 2000)
      (protocol_run (module Termination.Static) protocol_on)
  in
  let off6, s6 =
    measure ~name:"cluster-steady" ~trace:"off" ~iters:(scale 20)
      (cluster_run cluster_off)
  in
  let on7, s7 =
    measure ~name:"cluster-steady" ~trace:"on" ~iters:(scale 20)
      (cluster_run cluster_on)
  in
  let scenarios = [ s1; s2; s3; s4; s5; s6; s7 ] in
  (* One number per paired scenario: trace-on throughput as a fraction
     of trace-off (1.0 = tracing is free).  This is the trajectory the
     CI overhead gate watches. *)
  let ratios =
    [
      ("3pc-partition", on3 /. off2);
      ("termination-partition", on5 /. off4);
      ("cluster-steady", on7 /. off6);
    ]
  in
  List.iter
    (fun (name, r) -> row "  %-24s trace_overhead_ratio %5.2f@." name r)
    ratios;
  let bench_json =
    Export.Obj
      [
        ("smoke", Export.Bool smoke);
        ("t_unit", Export.Int (Vtime.to_int t_unit));
        ("recommended_domains", Export.Int (Domain.recommended_domain_count ()));
        ("scenarios", Export.List scenarios);
        ( "trace_overhead_ratio",
          Export.Obj (List.map (fun (n, r) -> (n, Export.Float r)) ratios) );
      ]
  in
  let oc = open_out "BENCH_engine.json" in
  output_string oc (Export.to_string bench_json);
  output_string oc "\n";
  close_out oc;
  row "  wrote BENCH_engine.json@."

(* ------------------------------------------------------------------ *)
(* Span-recording overhead (BENCH_obs.json)                            *)
(* ------------------------------------------------------------------ *)

(* The obs recorder follows the trace ring's discipline: a cached
   enabled flag, zero allocation on the off path.  This section prices
   both sides of that claim — the obs-absent and obs-disabled variants
   must agree on bytes/event (the hot paths are the same closures), and
   the obs-on variants show what recording every span and flow costs.
   A fresh recorder per run is part of the measured on-cost: that is
   what `tp_sim spans` pays. *)

let obs_bench ~smoke () =
  section
    (Printf.sprintf "Obs — span-recording cost per event%s"
       (if smoke then " (smoke mode)" else ""));
  let scale n = if smoke then max 1 (n / 20) else n in
  (* Returns (json, events_per_sec): the telemetry section below gates
     on throughput ratios between legs. *)
  let measure ~name ~obs ~iters run_once =
    ignore (run_once ());
    Gc.full_major ();
    let bytes0 = Gc.allocated_bytes () in
    let t0 = Unix.gettimeofday () in
    let events = ref 0 in
    for _ = 1 to iters do
      events := !events + run_once ()
    done;
    let seconds = Unix.gettimeofday () -. t0 in
    let bytes1 = Gc.allocated_bytes () in
    let ev = float_of_int !events in
    let events_per_sec = ev /. seconds in
    let bytes_per_event = (bytes1 -. bytes0) /. ev in
    row "  %-24s obs=%-14s %10.0f ev/s %8.1f B/ev@." name obs events_per_sec
      bytes_per_event;
    ( Export.Obj
        [
          ("name", Export.String name);
          ("obs", Export.String obs);
          ("iters", Export.Int iters);
          ("events", Export.Int !events);
          ("seconds", Export.Float seconds);
          ("events_per_sec", Export.Float events_per_sec);
          ("bytes_per_event", Export.Float bytes_per_event);
        ],
      events_per_sec )
  in
  let protocol_config =
    {
      (base_config ~n:5 ()) with
      Runner.partition =
        partition ~heals_after:(t 3) ~g2:[ 4; 5 ] ~at:2100 ~n:5 ();
      delay = Delay.full ~t_max:t_unit;
    }
  in
  let module Cluster = Commit_cluster in
  let cluster_config =
    {
      (Cluster.Runtime.default_config ()) with
      Cluster.Runtime.duration = Vtime.of_int (t 100);
      drain = Vtime.of_int (t 30);
      load = 40;
      bucket = Vtime.of_int (t 25);
    }
  in
  let s1 =
    measure ~name:"termination-partition" ~obs:"absent" ~iters:(scale 2000)
      (fun () ->
        (Runner.run (module Termination.Static) protocol_config)
          .Runner.events_run)
  in
  let s2 =
    measure ~name:"termination-partition" ~obs:"disabled" ~iters:(scale 2000)
      (fun () ->
        (Runner.run ~obs:Obs.disabled (module Termination.Static)
           protocol_config)
          .Runner.events_run)
  in
  let s3 =
    measure ~name:"termination-partition" ~obs:"on" ~iters:(scale 2000)
      (fun () ->
        (Runner.run ~obs:(Obs.create ()) (module Termination.Static)
           protocol_config)
          .Runner.events_run)
  in
  let s4 =
    measure ~name:"cluster-steady" ~obs:"absent" ~iters:(scale 20) (fun () ->
        (Cluster.Runtime.run cluster_config).Cluster.Runtime.events_run)
  in
  let s5 =
    measure ~name:"cluster-steady" ~obs:"disabled" ~iters:(scale 20) (fun () ->
        (Cluster.Runtime.run ~obs:Obs.disabled cluster_config)
          .Cluster.Runtime.events_run)
  in
  let s6 =
    measure ~name:"cluster-steady" ~obs:"on" ~iters:(scale 20) (fun () ->
        (Cluster.Runtime.run ~obs:(Obs.create ()) cluster_config)
          .Cluster.Runtime.events_run)
  in
  (* Telemetry overhead: the same cluster scenario with each telemetry
     feature switched on, priced against the plain (obs-absent,
     telemetry-off) s4 leg.  The span->histogram bridge is active
     whenever obs is on, so s6/s4 is the bridge gate the CI smoke
     enforces (>= 0.5, i.e. less than 2x slowdown). *)
  section "Telemetry — windowed snapshots, span bridge, profiler";
  let snapshot_config =
    {
      cluster_config with
      Cluster.Runtime.snapshot_every = Some (Vtime.of_int (t 25));
    }
  in
  let s7 =
    measure ~name:"cluster-steady" ~obs:"absent+snaps" ~iters:(scale 20)
      (fun () ->
        (Cluster.Runtime.run snapshot_config).Cluster.Runtime.events_run)
  in
  let s8 =
    measure ~name:"cluster-steady" ~obs:"on+snaps" ~iters:(scale 20)
      (fun () ->
        (Cluster.Runtime.run ~obs:(Obs.create ()) snapshot_config)
          .Cluster.Runtime.events_run)
  in
  let profile_config =
    { cluster_config with Cluster.Runtime.profile = true }
  in
  let s9 =
    measure ~name:"cluster-steady" ~obs:"absent+profile" ~iters:(scale 20)
      (fun () ->
        (Cluster.Runtime.run profile_config).Cluster.Runtime.events_run)
  in
  (* The bridge in isolation: record span pairs, then stream them into
     per-name histograms.  The cluster legs above can't price the
     bridge — there the obs *recording* (PR 8 machinery) dominates —
     so the acceptance gate lives here: draining every span through
     the bridge must keep >= 50% of record-only throughput, i.e. the
     enabled bridge costs < 2x the bridge-off span path. *)
  let spans_per_round = if smoke then 20_000 else 100_000 in
  let emit_spans obs =
    for i = 1 to spans_per_round do
      Obs.span_begin obs ~at:(Vtime.of_int i) ~site:1 ~tid:(i land 7)
        ~cat:"proto" "phase";
      Obs.span_end obs ~at:(Vtime.of_int (i + 3)) ~site:1 ~tid:(i land 7)
    done;
    2 * spans_per_round
  in
  let s10 =
    measure ~name:"span-bridge" ~obs:"record-only" ~iters:(scale 100)
      (fun () -> emit_spans (Obs.create ()))
  in
  let s11 =
    measure ~name:"span-bridge" ~obs:"record+drain" ~iters:(scale 100)
      (fun () ->
        let obs = Obs.create () in
        let n = emit_spans obs in
        let bridge = Cluster.Span_bridge.create obs in
        let metrics = Cluster.Metrics.create ~t_unit () in
        Cluster.Span_bridge.flush bridge metrics;
        n)
  in
  let ratio over under = if under > 0. then over /. under else 0. in
  let bridge_overhead_ratio = ratio (snd s11) (snd s10) in
  let span_record_ratio = ratio (snd s6) (snd s4) in
  let snapshot_overhead_ratio = ratio (snd s7) (snd s4) in
  let full_telemetry_ratio = ratio (snd s8) (snd s4) in
  let profile_overhead_ratio = ratio (snd s9) (snd s4) in
  row "  span bridge keeps %.0f%% of record-only throughput (gate: >= 50%%)@."
    (100. *. bridge_overhead_ratio);
  row "  vs the trace-off cluster: spans %.0f%%; snapshots %.0f%%; \
       snapshots+obs %.0f%%; profiler %.0f%%@."
    (100. *. span_record_ratio)
    (100. *. snapshot_overhead_ratio)
    (100. *. full_telemetry_ratio)
    (100. *. profile_overhead_ratio);
  (* One profiled run's wall-clock attribution, for the record.  The
     numbers are host-dependent by design — they live only here and on
     stderr, never in any deterministic surface. *)
  let profile_json =
    match (Cluster.Runtime.run profile_config).Cluster.Runtime.profile with
    | None -> Export.Null
    | Some r ->
        Export.Obj
          [
            ("total_seconds", Export.Float r.Prof.total_seconds);
            ( "buckets",
              Export.Obj
                (List.map
                   (fun row ->
                     ( row.Prof.row_bucket,
                       Export.Obj
                         [
                           ("seconds", Export.Float row.Prof.row_seconds);
                           ("entries", Export.Int row.Prof.row_entries);
                         ] ))
                   r.Prof.rows) );
          ]
  in
  let scenarios =
    List.map fst [ s1; s2; s3; s4; s5; s6; s7; s8; s9; s10; s11 ]
  in
  let bench_json =
    Export.Obj
      [
        ("smoke", Export.Bool smoke);
        ("t_unit", Export.Int (Vtime.to_int t_unit));
        ("scenarios", Export.List scenarios);
        ( "telemetry",
          Export.Obj
            [
              ("bridge_overhead_ratio", Export.Float bridge_overhead_ratio);
              ("span_record_ratio", Export.Float span_record_ratio);
              ("snapshot_overhead_ratio", Export.Float snapshot_overhead_ratio);
              ("full_telemetry_ratio", Export.Float full_telemetry_ratio);
              ("profile_overhead_ratio", Export.Float profile_overhead_ratio);
              ("profile", profile_json);
            ] );
      ]
  in
  let oc = open_out "BENCH_obs.json" in
  output_string oc (Export.to_string bench_json);
  output_string oc "\n";
  close_out oc;
  row "  wrote BENCH_obs.json@.";
  row "  -> absent vs disabled is the PR's regression gate: same B/ev@."

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the simulator                          *)
(* ------------------------------------------------------------------ *)

let microbenchmarks () =
  section "Bechamel micro-benchmarks (simulator cost per operation)";
  let failure_free protocol () =
    ignore (Runner.run protocol (base_config ~n:3 ()))
  in
  let partitioned protocol () =
    let config =
      {
        (base_config ~n:3 ()) with
        Runner.partition = partition ~g2:[ 3 ] ~at:2100 ~n:3 ();
        delay = Delay.full ~t_max:t_unit;
      }
    in
    ignore (Runner.run protocol config)
  in
  let engine_churn () =
    let e = Engine.create ~trace:(Trace.create ~enabled:false ()) () in
    for i = 1 to 1000 do
      ignore
        (Engine.schedule e ~delay:(Vtime.of_int ((i mod 97) + 1)) ~label:(Label.Static "x")
           ignore)
    done;
    Engine.run e
  in
  let fsa_analyze () =
    ignore (Commit_fsa.Analysis.analyze Commit_fsa.Catalog.three_phase ~n:3)
  in
  let bank () =
    let module Tm = Commit_db.Tm in
    let module Workload = Commit_db.Workload in
    let w =
      Workload.bank_transfers ~n:3 ~pairs:4 ~balance:100 ~amount:5
        ~spacing:(Vtime.of_int 6000) ~seed:7L
    in
    let config =
      {
        (Tm.default_config ~protocol:(module Termination.Static) ()) with
        Tm.initial = w.Workload.initial;
      }
    in
    ignore (Tm.run config w.Workload.txns)
  in
  let tests =
    [
      Test.make ~name:"run/2pc-clean"
        (Staged.stage (failure_free Fsa_actor.two_phase));
      Test.make ~name:"run/3pc-clean"
        (Staged.stage (failure_free Fsa_actor.three_phase));
      Test.make ~name:"run/termination-clean"
        (Staged.stage (failure_free (module Termination.Static)));
      Test.make ~name:"run/termination-partitioned"
        (Staged.stage (partitioned (module Termination.Static)));
      Test.make ~name:"run/quorum-partitioned"
        (Staged.stage (partitioned Inquiry.quorum));
      Test.make ~name:"engine/1k-events" (Staged.stage engine_churn);
      Test.make ~name:"fsa/analyze-3pc-n3" (Staged.stage fsa_analyze);
      Test.make ~name:"db/bank-4-transfers" (Staged.stage bank);
    ]
  in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.3) ~kde:None () in
  let raw =
    Benchmark.all cfg
      Toolkit.Instance.[ monotonic_clock ]
      (Test.make_grouped ~name:"sim" tests)
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let estimate =
          match Analyze.OLS.estimates ols with
          | Some [ e ] -> e
          | Some _ | None -> nan
        in
        (name, estimate) :: acc)
      results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.iter
    (fun (name, ns) ->
      row "  %-32s %12.0f ns/run (%.3f ms)@." name ns (ns /. 1e6))
    rows

let () =
  Format.printf
    "Reproduction harness — Huang & Li, \"A Termination Protocol for Simple@.";
  Format.printf
    "Network Partitioning in Distributed Database Systems\", ICDE 1987.@.";
  Format.printf "T = %d ticks; grids are exhaustive over cuts x instants x@."
    (t 1);
  Format.printf "delay models x seeds (see Scenario.default_grid).@.";
  let smoke = has_flag "--smoke" in
  if has_flag "--engine-only" then engine_bench ~smoke ()
  else if has_flag "--obs-overhead" || has_flag "--telemetry-overhead" then
    obs_bench ~smoke ()
  else if has_flag "--paxos-only" then paxos_bench ~smoke ()
  else if has_flag "--sweep-only" then parallel_sweeps ~smoke ()
  else if has_flag "--soak-only" then soak_bench ~smoke ()
  else begin
  fig1 ();
  fig2 ();
  fig3 ();
  fig4 ();
  fig5 ();
  fig6 ();
  fig7 ();
  fig8 ();
  window_ablation ();
  sec6 ();
  thm9 ();
  lemma3 ();
  thm10 ();
  multi_partitioning ();
  assumption2 ();
  ref4 ();
  paxos_bench ~smoke ();
  sec7 ();
  db_cost ();
  latency_distribution ();
  scalability ();
  cluster_throughput ();
  parallel_sweeps ~smoke ();
  soak_bench ~smoke ();
  engine_bench ~smoke ();
  obs_bench ~smoke ();
  microbenchmarks ()
  end;
  Format.printf "@.done.@."
