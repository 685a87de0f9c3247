(* Tests for the scenario checker (lib/checker): verdicts, grids,
   sweeps, and the Section 6 case classifier. *)

let check = Alcotest.check


let t_unit = Vtime.of_int 1000

let config ?(n = 3) ?(partition = Partition.none)
    ?(delay = Delay.uniform ~t_max:t_unit) ?(seed = 1L) () =
  let base = Runner.default_config ~n ~t_unit () in
  { base with Runner.partition; delay; seed; trace_enabled = false }

let partition ?heals_after ~g2 ~at ~n () =
  let starts_at = Vtime.of_int at in
  Partition.make
    ?heals_at:
      (Option.map (fun h -> Vtime.add starts_at (Vtime.of_int h)) heals_after)
    ~group2:(Site_id.set_of_ints g2) ~starts_at ~n ()

(* ------------------------------------------------------------------ *)
(* Verdict                                                             *)
(* ------------------------------------------------------------------ *)

let test_verdict_committed () =
  let result = Runner.run (module Termination.Static) (config ()) in
  let v = Verdict.of_result result in
  check Alcotest.bool "atomic" true v.atomic;
  check Alcotest.int "3 committed" 3 (List.length v.committed);
  check Alcotest.bool "resilient" true (Verdict.resilient v);
  check Alcotest.bool "outcome" true (Verdict.outcome v = `Committed);
  check Alcotest.bool "has max decision time" true (v.max_decision_time <> None)

let test_verdict_mixed () =
  (* The ext2pc Section 3 counterexample yields a Mixed outcome. *)
  let p = partition ~g2:[ 3 ] ~at:2100 ~n:3 () in
  let result =
    Runner.run
      Fsa_actor.ext_two_phase
      (config ~partition:p ~delay:(Delay.full ~t_max:t_unit) ())
  in
  let v = Verdict.of_result result in
  check Alcotest.bool "not atomic" false v.atomic;
  check Alcotest.bool "mixed" true (Verdict.outcome v = `Mixed);
  check Alcotest.bool "not resilient" false (Verdict.resilient v)

let test_verdict_blocked_and_vacuous () =
  (* 2pc with the transaction cut off from site3 before delivery:
     master+site2 block mid-protocol; site3 never heard of it. *)
  let p = partition ~g2:[ 3 ] ~at:100 ~n:3 () in
  let result =
    Runner.run
      Fsa_actor.two_phase
      (config ~partition:p ~delay:(Delay.full ~t_max:t_unit) ())
  in
  let v = Verdict.of_result result in
  check Alcotest.bool "undecided" true (Verdict.outcome v = `Undecided);
  check Alcotest.bool "blocked nonempty" true (v.blocked <> []);
  check Alcotest.(list int) "site3 vacuous"
    [ 3 ]
    (List.map Site_id.to_int v.vacuous);
  check Alcotest.bool "not resilient" false (Verdict.resilient v)

(* ------------------------------------------------------------------ *)
(* Scenario grids                                                      *)
(* ------------------------------------------------------------------ *)

let test_all_cuts () =
  let cuts3 = Scenario.all_cuts ~n:3 in
  check Alcotest.int "2^(n-1)-1 cuts for n=3" 3 (List.length cuts3);
  let cuts5 = Scenario.all_cuts ~n:5 in
  check Alcotest.int "15 cuts for n=5" 15 (List.length cuts5);
  check Alcotest.bool "master never in G2" true
    (List.for_all
       (fun cut -> not (Site_id.Set.mem Site_id.master cut))
       cuts5);
  check Alcotest.bool "no empty cut" true
    (List.for_all (fun cut -> not (Site_id.Set.is_empty cut)) cuts5)

let test_instants () =
  let ts = Scenario.instants ~t_unit ~until_mult:2 ~per_t:4 in
  check Alcotest.int "8 instants" 8 (List.length ts);
  check Alcotest.int "first" 250 (List.hd ts);
  check Alcotest.int "last" 2000 (List.nth ts 7)

let test_configs_product () =
  let base = Runner.default_config ~n:3 ~t_unit () in
  let grid =
    {
      Scenario.cuts = Scenario.all_cuts ~n:3;
      starts = Scenario.instants ~t_unit ~until_mult:2 ~per_t:1;
      heals_after = [ None; Some (Vtime.of_int 500) ];
      delays = [ Delay.minimal ];
      seeds = [ 1L; 2L ];
      votes = [ [] ];
      crashes = [ [] ];
    }
  in
  let configs = Scenario.configs ~base grid in
  check Alcotest.int "cartesian size" (3 * 2 * 2 * 1 * 2) (List.length configs)

let test_all_multi_cuts () =
  check Alcotest.(list (list (list int))) "n=2 has none" []
    (List.map
       (List.map (fun s -> List.map Site_id.to_int (Site_id.Set.elements s)))
       (Scenario.all_multi_cuts ~n:2));
  (* Stirling numbers: S(3,3) = 1; S(4,3) + S(4,4) = 6 + 1 = 7. *)
  check Alcotest.int "n=3 -> 1 multiple partitioning" 1
    (List.length (Scenario.all_multi_cuts ~n:3));
  check Alcotest.int "n=4 -> 7 multiple partitionings" 7
    (List.length (Scenario.all_multi_cuts ~n:4));
  List.iter
    (fun cells ->
      let union =
        List.fold_left Site_id.Set.union Site_id.Set.empty cells
      in
      check Alcotest.int "cells cover all sites" 4 (Site_id.Set.cardinal union);
      check Alcotest.bool "at least 3 cells" true (List.length cells >= 3))
    (Scenario.all_multi_cuts ~n:4)

(* ------------------------------------------------------------------ *)
(* Sweep                                                               *)
(* ------------------------------------------------------------------ *)

let tiny_grid ~n =
  let base = Runner.default_config ~n ~t_unit () in
  Scenario.configs ~base
    {
      Scenario.cuts = Scenario.all_cuts ~n;
      starts = Scenario.instants ~t_unit ~until_mult:6 ~per_t:1;
      heals_after = [ None ];
      delays = [ Delay.full ~t_max:t_unit ];
      seeds = [ 1L ];
      votes = [ [] ];
      crashes = [ [] ];
    }

let test_sweep_accounting () =
  let configs = tiny_grid ~n:3 in
  let summary = Sweep.run (module Termination.Static) configs in
  check Alcotest.int "all runs counted" (List.length configs) summary.runs;
  check Alcotest.int "partition"
    (summary.committed + summary.aborted + summary.undecided
   + summary.violations)
    summary.runs;
  check Alcotest.int "termination never violates" 0 summary.violations

let test_sweep_collects_examples () =
  let summary = Sweep.run ~keep:2 Fsa_actor.two_phase (tiny_grid ~n:3) in
  check Alcotest.bool "blocked runs found" true (summary.blocked_runs > 0);
  check Alcotest.bool "examples kept" true
    (List.length summary.blocked_examples > 0
    && List.length summary.blocked_examples <= 2)

(* Cuts that start after the failure-free run has ended never meet the
   network, so the sweep builds actors for one of them and reuses its
   verdict for the rest. *)
let test_sweep_reuses_quiet_runs () =
  let creates = ref 0 in
  let module Counting = struct
    include Termination.Transient

    let create ctx role =
      incr creates;
      Termination.Transient.create ctx role
  end in
  let configs =
    List.concat_map
      (fun g2 ->
        List.map
          (fun at ->
            config ~partition:(partition ~g2 ~at ~n:3 ())
              ~delay:(Delay.full ~t_max:t_unit) ())
          [ 20_000; 25_000; 30_000 ])
      [ [ 2 ]; [ 3 ]; [ 2; 3 ] ]
  in
  let summary = Sweep.run (module Counting) configs in
  check Alcotest.int "every late cut counted" 9 summary.runs;
  check Alcotest.int "every late cut committed" 9 summary.committed;
  check Alcotest.int "actors for one run of three sites" 3 !creates

(* One key: n=3, full delays, seed 1, G2={site3}.  Every hop takes T,
   so the partition-free run's messages arrive at 1000, 2000, ...,
   5000.  A cut active at exactly the same arrivals gets the same
   answer to every partition query, so the sweep simulates one run for
   all such cuts.  [starts_at] is inclusive: a cut at 3000 already
   meets the arrivals at 3000, and one at 2000 meets those at 2000. *)
let test_sweep_shares_runs_across_a_gap () =
  let creates = ref 0 in
  let module Counting = struct
    include Termination.Transient

    let create ctx role =
      incr creates;
      Termination.Transient.create ctx role
  end in
  let cut ?heal at =
    config
      ~partition:
        (Partition.make
           ?heals_at:(Option.map Vtime.of_int heal)
           ~group2:(Site_id.set_of_ints [ 3 ])
           ~starts_at:(Vtime.of_int at) ~n:3 ())
      ~delay:(Delay.full ~t_max:t_unit) ()
  in
  let runs configs =
    creates := 0;
    let summary = Sweep.run (module Counting) configs in
    check Alcotest.int "every config counted" (List.length configs)
      summary.runs;
    !creates / 3
  in
  check Alcotest.int "static cuts starting in (2000, 3000]" 1
    (runs (List.map cut [ 2001; 2500; 2999; 3000 ]));
  (* With the prepare to site3 bounced at 3000, nothing arrives until
     4000, so heals in (3000, 4000] leave every answer alike too;
     [heals_at] is exclusive, so a heal at 4000 misses its arrivals. *)
  check Alcotest.int "heals in (3000, 4000]" 1
    (runs
       (List.concat_map
          (fun at -> List.map (fun heal -> cut ~heal at) [ 3001; 3500; 4000 ])
          [ 2001; 2500; 3000 ]));
  check Alcotest.int "a cut at the earlier arrival is a second run" 2
    (runs (List.map cut [ 2001; 2500; 2000; 3000 ]));
  check Alcotest.int "a heal at an arrival misses it" 2
    (runs [ cut ~heal:3001 2500; cut ~heal:3000 2500 ])

(* The plain per-config fold that [Sweep.run] must reproduce whatever
   runs it skips: a fresh [Runner.run] per config, merged in order. *)
let plain_fold protocol configs =
  let name = Site.name protocol in
  List.fold_left
    (fun acc config ->
      let v = Verdict.of_result (Runner.run protocol config) in
      Sweep.merge ~keep:3 acc (Sweep.of_verdict ~protocol:name (config, v)))
    (Sweep.run protocol []) configs

(* A config's walk enters its key's trie at the first root-path node at
   or after the cut's start.  Each case below is one sweep over one key
   (n=3, seed 1), whose run count is pinned and whose summary must equal
   the plain fold's. *)
let test_sweep_enters_at_the_start () =
  let creates = ref 0 in
  let module Counting = struct
    include Termination.Transient

    let create ctx role =
      incr creates;
      Termination.Transient.create ctx role
  end in
  let runs configs =
    creates := 0;
    let export s = Export.to_string (Export.of_summary s) in
    check Alcotest.string "the plain fold's summary"
      (export (plain_fold (module Termination.Transient) configs))
      (export (Sweep.run (module Counting) configs));
    !creates / 3
  in
  (* With one-tick hops, the partition-free run's messages arrive two
     at each tick: 1>2 then 1>3 at 1, 3 and 5; 2>1 then 3>1 at 2 and 4.
     With that run stored, a cut at 4 and then one at 3 each meet a
     crossing arrival at their first instant, so neither reaches the
     other's leaf.  An entry after the start's arrivals would walk the
     cut at 3 into the run of the cut at 4.  G2={site2} crosses the
     first arrival of each tick and G2={site3} the second. *)
  let free = config ~delay:Delay.minimal () in
  let minimal ~g2 at =
    config ~partition:(partition ~g2 ~at ~n:3 ()) ~delay:Delay.minimal ()
  in
  check Alcotest.int "one-tick hops: cuts at 4 then 3, G2={site3}" 3
    (runs [ free; minimal ~g2:[ 3 ] 4; minimal ~g2:[ 3 ] 3 ]);
  check Alcotest.int "one-tick hops: cuts at 4 then 3, both G2s" 5
    (runs
       [
         free;
         minimal ~g2:[ 3 ] 4;
         minimal ~g2:[ 3 ] 3;
         minimal ~g2:[ 2 ] 4;
         minimal ~g2:[ 2 ] 3;
       ]);
  (* With T-long hops, a cut at 1500 meets site3's ack at 2000, so the
     key's first run leaves the root path there.  A cut at 3500 finds
     no root-path node at or after its start and is simulated; its run
     extends the root path to 4000, where a cut at 3800 enters and
     follows the 3500 run to its leaf. *)
  let full at =
    config
      ~partition:(partition ~g2:[ 3 ] ~at ~n:3 ())
      ~delay:(Delay.full ~t_max:t_unit) ()
  in
  check Alcotest.int "T-long hops: a cut at 1500, then 3500 and 3800" 2
    (runs [ full 1500; full 3500; full 3800 ])

(* A random grid over one to three keys (n, delay, seed, votes,
   crashes, mode), so keys repeat, each crossed with no partition,
   early and late simple cuts with and without heals, and multiple
   partitionings.  The delays include a pure [Per_link] function. *)
let random_sweep =
  let open QCheck.Gen in
  let key =
    let* n = int_range 3 4 in
    let* delay =
      oneofl
        [
          Delay.minimal;
          Delay.full ~t_max:t_unit;
          Delay.uniform ~t_max:t_unit;
          Delay.Per_link
            (fun src dst ->
              let src = Site_id.to_int src and dst = Site_id.to_int dst in
              Vtime.of_int (1 + (((97 * src) + (31 * dst)) mod 1000)));
        ]
    in
    let* seed = map Int64.of_int (int_range 1 2) in
    let* votes = oneofl [ []; [ (Site_id.of_int 2, false) ] ] in
    let* crashes =
      oneofl
        [
          [];
          [ (Site_id.of_int 2, Vtime.of_int 1500) ];
          [ (Site_id.master, Vtime.of_int 2500) ];
        ]
    in
    let+ mode = oneofl [ Network.Optimistic; Network.Pessimistic ] in
    { (config ~n ~delay ~seed ()) with Runner.votes; crashes; mode }
  in
  (* The instants at which messages of the key's partition-free run
     arrive, and one tick either side: a cut that starts or heals there
     meets an arrival exactly, where [starts_at] (inclusive) and
     [heals_at] (exclusive) decide the sweep's answers. *)
  let boundaries protocol (c : Runner.config) =
    let instants = ref [] in
    let tap = function
      | Network.Delivered { at; _ } | Network.Lost { at; _ } ->
          instants := Vtime.to_int at :: !instants
      | Network.Sent _ | Network.Bounced _ -> ()
    in
    ignore (Runner.run ~tap protocol { c with partition = Partition.none });
    List.concat_map (fun at -> [ at - 1; at; at + 1 ]) !instants
    |> List.filter (fun at -> at >= 1)
    |> List.sort_uniq Int.compare
  in
  (* Cut instants are early, late, on the grids' quarter-T points, where
     a cut can start exactly as a run ends, or on the boundaries. *)
  let partition protocol (c : Runner.config) =
    let n = c.n in
    let boundaries = boundaries protocol c in
    let* at =
      oneof
        [
          int_range 1 3_000;
          int_range 3_000 12_000;
          map (fun k -> 250 * k) (int_range 1 48);
          oneofl boundaries;
        ]
    in
    let* heals_at =
      match List.filter (fun b -> b > at) boundaries with
      | [] -> opt (map (fun d -> at + d) (int_range 1 6_000))
      | later ->
          opt
            (oneof [ map (fun d -> at + d) (int_range 1 6_000); oneofl later ])
    in
    let heals_at = Option.map Vtime.of_int heals_at in
    let starts_at = Vtime.of_int at in
    frequency
      [
        (1, return Partition.none);
        ( 3,
          let+ group2 = oneofl (Scenario.all_cuts ~n) in
          Partition.make ?heals_at ~group2 ~starts_at ~n () );
        ( 1,
          let+ groups = oneofl (Scenario.all_multi_cuts ~n) in
          Partition.make_multiple ?heals_at ~groups ~starts_at ~n () );
      ]
  in
  let* protocol = oneofl Registry.all in
  let* keys = list_size (int_range 1 3) key in
  let+ configs =
    list_size (int_range 1 40)
      (let* c = oneofl keys in
       let+ partition = partition protocol.protocol c in
       { c with Runner.partition })
  in
  (protocol, configs)

let qcheck_sweep_equals_plain_fold =
  let print ((e : Registry.entry), configs) =
    String.concat "\n" (e.name :: List.map Scenario.config_id configs)
  in
  QCheck.Test.make ~count:100
    ~name:"Sweep.run at jobs 1 and 2 = the plain per-config fold"
    (QCheck.make ~print random_sweep)
    (fun ((e : Registry.entry), configs) ->
      let export s = Export.to_string (Export.of_summary s) in
      let expected = export (plain_fold e.protocol configs) in
      List.for_all
        (fun jobs ->
          String.equal expected (export (Sweep.run ~jobs e.protocol configs)))
        [ 1; 2 ])

(* Two configs with one partition whose keys differ only in [mode], and
   two without a partition whose keys differ only in [crashes]: each
   pair makes the same partition queries up to a point and gets the
   same answers, yet their runs differ, so they must not share a
   trie. *)
let test_sweep_keeps_keys_apart () =
  let cut = partition ~g2:[ 3 ] ~at:2500 ~n:3 () in
  let full = Delay.full ~t_max:t_unit in
  let configs =
    [
      config ~partition:cut ~delay:full ();
      { (config ~partition:cut ~delay:full ()) with mode = Network.Pessimistic };
      config ~delay:full ();
      {
        (config ~delay:full ()) with
        crashes = [ (Site_id.of_int 2, Vtime.of_int 1500) ];
      };
    ]
  in
  let export s = Export.to_string (Export.of_summary s) in
  List.iter
    (fun (e : Registry.entry) ->
      check Alcotest.string e.name
        (export (plain_fold e.protocol configs))
        (export (Sweep.run e.protocol configs)))
    Registry.all

(* ------------------------------------------------------------------ *)
(* Case classifier                                                     *)
(* ------------------------------------------------------------------ *)

let observe ?heals_after ~g2 ~at ?(delay = Delay.full ~t_max:t_unit)
    ?(protocol = (module Termination.Static : Site.S)) ?(n = 3) () =
  let p = partition ?heals_after ~g2 ~at ~n () in
  Cases.observe protocol (config ~n ~partition:p ~delay ())

let case_t : Timing.case option Alcotest.testable =
  Alcotest.testable
    (fun fmt -> function
      | None -> Format.pp_print_string fmt "none"
      | Some c -> Timing.pp_case fmt c)
    ( = )

let test_case_none_before_prepare () =
  (* Partition before any prepare exists: outside the Section 6 tree. *)
  let obs = observe ~g2:[ 3 ] ~at:100 () in
  check case_t "no case" None obs.case

let test_case_1 () =
  (* Partition at 2.1T: prepares leave at 2T with full delays and all
     bounce — no prepare passes B. *)
  let obs = observe ~g2:[ 3 ] ~at:2100 () in
  check case_t "case 1" (Some Timing.Case_1) obs.case

let test_case_3_1 () =
  (* Prepares delivered at 3T; the cut at 3.05T bounces the acks. *)
  let obs = observe ~g2:[ 3 ] ~at:3050 () in
  check case_t "case 3.1" (Some Timing.Case_3_1) obs.case

let test_case_2_1 () =
  (* The asymmetric per-link scenario cut at 1815 ticks: prepare3 was
     delivered (1810) but its ack (1820) bounces, and prepare4 (slow
     link) bounces -> some prepares pass, some acks do not. *)
  let delay =
    Delay.Per_link
      (fun src dst ->
        match (Site_id.to_int src, Site_id.to_int dst) with
        | 1, 4 | 4, 1 -> Vtime.of_int 900
        | 1, 3 | 3, 1 -> Vtime.of_int 10
        | _, _ -> Vtime.of_int 100)
  in
  let obs = observe ~g2:[ 3; 4 ] ~at:1815 ~delay ~n:4 () in
  check case_t "case 2.1" (Some Timing.Case_2_1) obs.case

let test_case_3_2_2_2_static_unbounded () =
  let obs = observe ~g2:[ 2 ] ~at:1750 ~heals_after:1000
      ~delay:(Delay.uniform ~t_max:t_unit) () in
  check case_t "case 3.2.2.2" (Some Timing.Case_3_2_2_2) obs.case;
  (* Static protocol: the probing slave never decides. *)
  check Alcotest.bool "unbounded wait" true
    (List.exists (fun (_, w) -> w = None) obs.probe_waits)

let test_case_3_2_2_2_transient_bounded () =
  let obs =
    observe
      ~protocol:(module Termination.Transient)
      ~g2:[ 2 ] ~at:1750 ~heals_after:1000
      ~delay:(Delay.uniform ~t_max:t_unit) ()
  in
  check case_t "case 3.2.2.2" (Some Timing.Case_3_2_2_2) obs.case;
  List.iter
    (fun (s, w) ->
      match w with
      | Some w ->
          check Alcotest.bool
            (Format.asprintf "%a decided at 5T sharp" Site_id.pp s)
            true (w = 5000)
      | None -> Alcotest.fail "transient slave undecided")
    obs.probe_waits

let test_case_3_2_1_harmless () =
  (* Partition only after the commits landed: every generation passed
     B; the partition was harmless. *)
  let obs = observe ~g2:[ 2 ] ~at:5050 () in
  check case_t "case 3.2.1" (Some Timing.Case_3_2_1) obs.case

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_stats_empty () =
  check Alcotest.bool "empty is None" true (Stats.of_list [] = None)

let test_stats_quantiles () =
  match Stats.of_list (List.init 100 (fun i -> i + 1)) with
  | None -> Alcotest.fail "expected stats"
  | Some s ->
      check Alcotest.int "count" 100 s.Stats.count;
      check Alcotest.int "min" 1 s.Stats.min;
      check Alcotest.int "p50" 50 s.Stats.p50;
      check Alcotest.int "p90" 90 s.Stats.p90;
      check Alcotest.int "p99" 99 s.Stats.p99;
      check Alcotest.int "max" 100 s.Stats.max;
      check (Alcotest.float 0.001) "mean" 50.5 s.Stats.mean

let test_stats_singleton () =
  match Stats.of_list [ 7 ] with
  | None -> Alcotest.fail "expected stats"
  | Some s ->
      check Alcotest.int "all quantiles equal" 7 s.Stats.p50;
      check Alcotest.int "max" 7 s.Stats.max

let test_stats_acc_empty () =
  check Alcotest.bool "empty is None" true (Stats.Acc.to_stats Stats.Acc.empty = None);
  check Alcotest.int "count" 0 (Stats.Acc.count Stats.Acc.empty);
  let raised =
    try
      ignore (Stats.Acc.add Stats.Acc.empty (-1));
      false
    with Invalid_argument _ -> true
  in
  check Alcotest.bool "negative rejected" true raised

let test_stats_acc_singleton () =
  (* A single sample is exact in every field, even in the coarse
     bucketing range, because percentiles clamp to [min, max]. *)
  List.iter
    (fun v ->
      match Stats.Acc.to_stats (Stats.Acc.add Stats.Acc.empty v) with
      | None -> Alcotest.fail "expected stats"
      | Some s ->
          check Alcotest.int "count" 1 s.Stats.count;
          check Alcotest.int "min" v s.Stats.min;
          check Alcotest.int "p50" v s.Stats.p50;
          check Alcotest.int "p99" v s.Stats.p99;
          check Alcotest.int "max" v s.Stats.max;
          check (Alcotest.float 0.001) "mean" (float_of_int v) s.Stats.mean)
    [ 0; 7; 63; 64; 5000; 123_456_789 ]

let test_stats_acc_merge_vs_batch () =
  (* Splitting a sample stream across accumulators and merging is
     exactly the same as accumulating everything in one — the cluster's
     sharded metric pipelines depend on it. *)
  let samples =
    List.init 500 (fun i -> (i * 7919) mod 10_000)
    @ List.init 100 (fun i -> i)
  in
  let rec split_3 (a, b, c) k = function
    | [] -> (a, b, c)
    | x :: rest ->
        let next =
          match k mod 3 with
          | 0 -> (x :: a, b, c)
          | 1 -> (a, x :: b, c)
          | _ -> (a, b, x :: c)
        in
        split_3 next (k + 1) rest
  in
  let sa, sb, sc = split_3 ([], [], []) 0 samples in
  let acc_of l = Stats.Acc.add_list Stats.Acc.empty l in
  let batch = acc_of samples in
  let merged =
    Stats.Acc.merge (acc_of sa) (Stats.Acc.merge (acc_of sb) (acc_of sc))
  in
  check Alcotest.int "count" (Stats.Acc.count batch) (Stats.Acc.count merged);
  check Alcotest.int "total" (Stats.Acc.total batch) (Stats.Acc.total merged);
  match (Stats.Acc.to_stats batch, Stats.Acc.to_stats merged) with
  | Some b, Some m ->
      check Alcotest.int "min" b.Stats.min m.Stats.min;
      check Alcotest.int "p50" b.Stats.p50 m.Stats.p50;
      check Alcotest.int "p90" b.Stats.p90 m.Stats.p90;
      check Alcotest.int "p99" b.Stats.p99 m.Stats.p99;
      check Alcotest.int "max" b.Stats.max m.Stats.max;
      check (Alcotest.float 0.0001) "mean" b.Stats.mean m.Stats.mean
  | _ -> Alcotest.fail "expected stats"

let test_stats_acc_vs_exact () =
  (* In the exact range (< 64) the streaming histogram agrees with
     Stats.of_list on every field. *)
  let samples = List.init 60 (fun i -> (i * 13) mod 60) in
  match
    (Stats.of_list samples, Stats.Acc.to_stats (Stats.Acc.add_list Stats.Acc.empty samples))
  with
  | Some exact, Some streamed ->
      check Alcotest.int "p50" exact.Stats.p50 streamed.Stats.p50;
      check Alcotest.int "p90" exact.Stats.p90 streamed.Stats.p90;
      check Alcotest.int "p99" exact.Stats.p99 streamed.Stats.p99;
      check Alcotest.int "min" exact.Stats.min streamed.Stats.min;
      check Alcotest.int "max" exact.Stats.max streamed.Stats.max
  | _ -> Alcotest.fail "expected stats"

(* Everything observable about an accumulator, as one comparable value. *)
let acc_repr acc =
  ( Stats.Acc.count acc,
    Stats.Acc.total acc,
    match Stats.Acc.to_stats acc with
    | None -> "none"
    | Some s -> Export.to_string (Export.of_stats s) )

let test_stats_acc_add_many () =
  let samples = Array.init 777 (fun i -> i * i mod 99_991) in
  let one_by_one = Array.fold_left Stats.Acc.add Stats.Acc.empty samples in
  let batched = Stats.Acc.add_many Stats.Acc.empty samples in
  check
    Alcotest.(triple int int string)
    "add_many = fold add" (acc_repr one_by_one) (acc_repr batched);
  check
    Alcotest.(triple int int string)
    "add_many on empty array is identity"
    (acc_repr Stats.Acc.empty)
    (acc_repr (Stats.Acc.add_many Stats.Acc.empty [||]))

let qcheck_acc_chunked_merge =
  (* The parallel sweeps lean on this: splitting a sample stream into
     arbitrary chunks, accumulating each independently (in either
     order), and merging in any association gives exactly the batch
     accumulator.  QCheck drives the chunk sizes and a shuffle seed. *)
  QCheck.Test.make ~count:200
    ~name:"Acc: any chunking/permutation of merges = one accumulator"
    QCheck.(
      triple
        (list (int_bound 200_000))
        (list (int_range 1 7))
        (int_bound 10_000))
    (fun (samples, chunk_sizes, seed) ->
      let arr = Array.of_list samples in
      let batch = Stats.Acc.add_many Stats.Acc.empty arr in
      (* cut [arr] into chunks, cycling through [chunk_sizes] *)
      let sizes = if chunk_sizes = [] then [ 3 ] else chunk_sizes in
      let sizes = Array.of_list sizes in
      let chunks = ref [] in
      let pos = ref 0 and k = ref 0 in
      while !pos < Array.length arr do
        let len =
          Stdlib.min sizes.(!k mod Array.length sizes) (Array.length arr - !pos)
        in
        chunks := Array.sub arr !pos len :: !chunks;
        pos := !pos + len;
        incr k
      done;
      let chunks = Array.of_list !chunks in
      (* accumulate each chunk on its own, then merge in shuffled order *)
      Rng.shuffle (Rng.create (Int64.of_int seed)) chunks;
      let partials =
        Array.map (Stats.Acc.add_many Stats.Acc.empty) chunks
      in
      let merged = Array.fold_left Stats.Acc.merge Stats.Acc.empty partials in
      acc_repr merged = acc_repr batch)

(* ------------------------------------------------------------------ *)
(* Diagram                                                             *)
(* ------------------------------------------------------------------ *)

let test_diagram_contents () =
  let p = partition ~g2:[ 3 ] ~at:2100 ~n:3 () in
  let cfg = config ~partition:p ~delay:(Delay.full ~t_max:t_unit) () in
  let rendered = Diagram.run (module Termination.Static) cfg in
  let contains needle =
    let nh = String.length rendered and nn = String.length needle in
    let rec scan i =
      if i + nn > nh then false
      else if String.sub rendered i nn = needle then true
      else scan (i + 1)
    in
    scan 0
  in
  check Alcotest.bool "has header" true (contains "master");
  check Alcotest.bool "shows the partition" true (contains "partition@2100");
  check Alcotest.bool "shows a bounce" true (contains "UD(prepare)");
  check Alcotest.bool "shows the decision" true (contains "ABORT (collect-abort)");
  check Alcotest.bool "shows arrows" true (contains "-->");
  (* deterministic: rendering twice is identical *)
  check Alcotest.string "deterministic" rendered
    (Diagram.run (module Termination.Static) cfg)

let test_diagram_collect_chronological () =
  let p = partition ~g2:[ 3 ] ~at:2100 ~n:3 () in
  let cfg = config ~partition:p ~delay:(Delay.full ~t_max:t_unit) () in
  let events, result = Diagram.collect (module Termination.Static) cfg in
  check Alcotest.bool "nonempty" true (events <> []);
  check Alcotest.bool "run decided" true
    ((Runner.site_result result (Site_id.of_int 1)).decision <> None);
  let times =
    List.map
      (function
        | Diagram.Message { at; _ }
        | Diagram.Decision { at; _ }
        | Diagram.Boundary { at; _ } ->
            at)
      events
  in
  let sorted = List.sort Vtime.compare times in
  check Alcotest.bool "chronological" true (times = sorted)

(* ------------------------------------------------------------------ *)
(* JSON export                                                         *)
(* ------------------------------------------------------------------ *)

let test_json_encoding () =
  let open Export in
  check Alcotest.string "escaping" "{\"a\\\"b\":\"x\\ny\"}"
    (to_string (Obj [ ("a\"b", String "x\ny") ]));
  check Alcotest.string "list" "[1,true,null,\"s\"]"
    (to_string (List [ Int 1; Bool true; Null; String "s" ]));
  check Alcotest.string "float" "2.5" (to_string (Float 2.5));
  check Alcotest.string "nested" "{\"k\":[{\"x\":0}]}"
    (to_string (Obj [ ("k", List [ Obj [ ("x", Int 0) ] ]) ]))

let test_json_summary_shape () =
  let summary =
    Sweep.run (module Termination.Static)
      (tiny_grid ~n:3)
  in
  let json = Export.to_string (Export.of_summary summary) in
  let contains needle =
    let nh = String.length json and nn = String.length needle in
    let rec scan i =
      if i + nn > nh then false
      else if String.sub json i nn = needle then true
      else scan (i + 1)
    in
    scan 0
  in
  check Alcotest.bool "protocol field" true
    (contains "\"protocol\":\"termination\"");
  check Alcotest.bool "violations field" true (contains "\"violations\":0");
  check Alcotest.bool "valid-ish" true
    (String.length json > 2 && json.[0] = '{')

let test_json_stats_and_verdict () =
  (match Stats.of_list [ 1; 2; 3 ] with
  | Some stats ->
      check Alcotest.string "stats json"
        "{\"count\":3,\"min\":1,\"p50\":2,\"p90\":3,\"p95\":3,\"p99\":3,\"max\":3,\"mean\":2.0}"
        (Export.to_string (Export.of_stats stats))
  | None -> Alcotest.fail "stats expected");
  let result = Runner.run (module Termination.Static) (config ()) in
  let json = Export.to_string (Export.of_verdict (Verdict.of_result result)) in
  check Alcotest.bool "verdict outcome" true
    (String.length json > 0 && json.[0] = '{')

(* ------------------------------------------------------------------ *)
(* Facts plumbing                                                      *)
(* ------------------------------------------------------------------ *)

let test_admissible_reason_lists () =
  check Alcotest.int "six slave commit cases" 6
    (List.length (Facts.admissible_commit_reasons_slave ~variant:Termination.Static));
  check Alcotest.int "transient adds one" 7
    (List.length
       (Facts.admissible_commit_reasons_slave ~variant:Termination.Transient));
  check Alcotest.int "three master commit cases" 3
    (List.length Facts.admissible_commit_reasons_master)

let test_audit_clean_run () =
  let result = Runner.run (module Termination.Static) (config ()) in
  check Alcotest.bool "clean" true (Facts.audit result = Ok ())

(* Every protocol [Termination.Make] derives is audited by its variant;
   any other protocol's result is refused. *)
let test_audit_every_derived_protocol () =
  let module Four_phase_transient = Termination.Make (struct
    let variant = Termination.Transient

    let fsa = Commit_fsa.Catalog.four_phase

    let collect_window_mult = Timing.collect_window_mult

    let wait_window_mult = Timing.wait_window_mult
  end) in
  let module Short_windows = Termination.With_windows (struct
    let collect_window_mult = 4

    let wait_window_mult = 5
  end) in
  List.iter
    (fun (protocol, name, variant) ->
      check Alcotest.string "name" name (Site.name protocol);
      check Alcotest.bool (name ^ " variant") true
        (Termination.variant_of_name name = Some variant);
      let result = Runner.run protocol (config ()) in
      check Alcotest.bool (name ^ " audits clean") true
        (Facts.audit result = Ok ()))
    [
      ( (module Four_phase_transient : Site.S),
        "4pc-termination-transient",
        Termination.Transient );
      ( (module Termination.Static_without_fig8),
        "termination-nofig8",
        Termination.Static );
      ((module Short_windows), "termination-w4-5", Termination.Static);
      ((module Termination.Four_phase), "4pc-termination", Termination.Static);
    ];
  let refused =
    try
      ignore (Facts.audit (Runner.run Fsa_actor.two_phase (config ())));
      false
    with Invalid_argument _ -> true
  in
  check Alcotest.bool "2pc refused" true refused

let () =
  Alcotest.run "commit_checker"
    [
      ( "verdict",
        [
          Alcotest.test_case "committed" `Quick test_verdict_committed;
          Alcotest.test_case "mixed" `Quick test_verdict_mixed;
          Alcotest.test_case "blocked and vacuous" `Quick
            test_verdict_blocked_and_vacuous;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "all cuts" `Quick test_all_cuts;
          Alcotest.test_case "instants" `Quick test_instants;
          Alcotest.test_case "configs product" `Quick test_configs_product;
          Alcotest.test_case "all multi cuts" `Quick test_all_multi_cuts;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "accounting" `Quick test_sweep_accounting;
          Alcotest.test_case "collects examples" `Quick
            test_sweep_collects_examples;
          Alcotest.test_case "reuses runs that end before their cut" `Quick
            test_sweep_reuses_quiet_runs;
          QCheck_alcotest.to_alcotest qcheck_sweep_equals_plain_fold;
          Alcotest.test_case "shares runs whose partitions answer alike"
            `Quick test_sweep_shares_runs_across_a_gap;
          Alcotest.test_case "keeps keys that differ in mode or crashes apart"
            `Quick test_sweep_keeps_keys_apart;
          Alcotest.test_case "enters each key's trie at the cut's start"
            `Quick test_sweep_enters_at_the_start;
        ] );
      ( "cases",
        [
          Alcotest.test_case "pre-prepare is no case" `Quick
            test_case_none_before_prepare;
          Alcotest.test_case "case 1" `Quick test_case_1;
          Alcotest.test_case "case 3.1" `Quick test_case_3_1;
          Alcotest.test_case "case 2.1" `Quick test_case_2_1;
          Alcotest.test_case "case 3.2.2.2 static unbounded" `Quick
            test_case_3_2_2_2_static_unbounded;
          Alcotest.test_case "case 3.2.2.2 transient bounded" `Quick
            test_case_3_2_2_2_transient_bounded;
          Alcotest.test_case "case 3.2.1 harmless" `Quick test_case_3_2_1_harmless;
        ] );
      ( "stats",
        [
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "quantiles" `Quick test_stats_quantiles;
          Alcotest.test_case "singleton" `Quick test_stats_singleton;
          Alcotest.test_case "acc empty" `Quick test_stats_acc_empty;
          Alcotest.test_case "acc singleton" `Quick test_stats_acc_singleton;
          Alcotest.test_case "acc merge = batch" `Quick
            test_stats_acc_merge_vs_batch;
          Alcotest.test_case "acc matches exact stats" `Quick
            test_stats_acc_vs_exact;
          Alcotest.test_case "acc add_many" `Quick test_stats_acc_add_many;
          QCheck_alcotest.to_alcotest qcheck_acc_chunked_merge;
        ] );
      ( "diagram",
        [
          Alcotest.test_case "contents" `Quick test_diagram_contents;
          Alcotest.test_case "collect is chronological" `Quick
            test_diagram_collect_chronological;
        ] );
      ( "export",
        [
          Alcotest.test_case "json encoding" `Quick test_json_encoding;
          Alcotest.test_case "summary shape" `Quick test_json_summary_shape;
          Alcotest.test_case "stats and verdict" `Quick
            test_json_stats_and_verdict;
        ] );
      ( "facts",
        [
          Alcotest.test_case "admissible reasons" `Quick
            test_admissible_reason_lists;
          Alcotest.test_case "audit clean run" `Quick test_audit_clean_run;
          Alcotest.test_case "audit every derived protocol" `Quick
            test_audit_every_derived_protocol;
        ] );
    ]
