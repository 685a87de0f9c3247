(* Tests for the formal FSA layer: the paper's Section 2 model, the
   concurrency-set/sender-set analyses, the Lemma 1/2 checks, and the
   Rule(a)/(b) augmentation. *)

module M = Commit_fsa.Machine
module Catalog = Commit_fsa.Catalog
module Explore = Commit_fsa.Explore
module Analysis = Commit_fsa.Analysis
module Augment = Commit_fsa.Augment

let check = Alcotest.check

let st id kind = { M.id; kind }

let tr ?(votes_yes = false) source guard target actions =
  { M.source; guard; target; actions; votes_yes }

(* ------------------------------------------------------------------ *)
(* Machine validation                                                  *)
(* ------------------------------------------------------------------ *)

let tiny_master =
  {
    M.role = M.Master;
    initial = "q1";
    states = [ st "q1" M.Initial; st "c1" M.Commit; st "a1" M.Abort ];
    transitions = [ tr "q1" M.Start "c1" [ M.Send_slaves "go" ] ];
  }

let tiny_slave =
  {
    M.role = M.Slave;
    initial = "q";
    states = [ st "q" M.Initial; st "c" M.Commit; st "a" M.Abort ];
    transitions = [ tr "q" (M.Recv "go") "c" [] ];
  }

let test_validate_ok () =
  match M.validate { M.name = "tiny"; master = tiny_master; slave = tiny_slave } with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let expect_invalid label protocol =
  match M.validate protocol with
  | Ok () -> Alcotest.fail (label ^ ": expected a validation error")
  | Error _ -> ()

let test_validate_duplicate_state () =
  expect_invalid "dup"
    {
      M.name = "dup";
      master =
        { tiny_master with M.states = st "q1" M.Initial :: tiny_master.M.states };
      slave = tiny_slave;
    }

let test_validate_unknown_target () =
  expect_invalid "unknown target"
    {
      M.name = "bad";
      master =
        {
          tiny_master with
          M.transitions = [ tr "q1" M.Start "nowhere" [] ];
        };
      slave = tiny_slave;
    }

let test_validate_start_on_slave () =
  expect_invalid "start on slave"
    {
      M.name = "bad";
      master = tiny_master;
      slave = { tiny_slave with M.transitions = [ tr "q" M.Start "c" [] ] };
    }

let test_validate_wrong_direction () =
  expect_invalid "slave sending to slaves"
    {
      M.name = "bad";
      master = tiny_master;
      slave =
        {
          tiny_slave with
          M.transitions = [ tr "q" (M.Recv "go") "c" [ M.Send_slaves "x" ] ];
        };
    }

let test_catalog_all_valid () =
  List.iter
    (fun p ->
      match M.validate p with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
    Catalog.all;
  check Alcotest.int "six protocols" 6 (List.length Catalog.all);
  check Alcotest.bool "find 3pc" true (Catalog.find "3pc" <> None);
  check Alcotest.bool "find junk" true (Catalog.find "junk" = None)

(* ------------------------------------------------------------------ *)
(* Exploration                                                         *)
(* ------------------------------------------------------------------ *)

let test_explore_2pc_counts () =
  let gs = Explore.reachable Catalog.two_phase ~n:2 in
  check Alcotest.int "2pc n=2 reachable" 7 (List.length gs);
  let gs3 = Explore.reachable Catalog.two_phase ~n:3 in
  check Alcotest.int "2pc n=3 reachable" 22 (List.length gs3)

let test_explore_terminals_atomic () =
  (* In failure-free execution no catalogued protocol reaches a mixed
     terminal state. *)
  List.iter
    (fun p ->
      List.iter
        (fun n ->
          let a = Analysis.analyze p ~n in
          let outcomes = Analysis.terminal_outcomes a in
          check Alcotest.bool
            (Printf.sprintf "%s n=%d has no mixed outcome" p.M.name n)
            false
            (List.mem `Mixed outcomes);
          check Alcotest.bool
            (Printf.sprintf "%s n=%d can commit" p.M.name n)
            true
            (List.mem `All_commit outcomes);
          check Alcotest.bool
            (Printf.sprintf "%s n=%d can abort" p.M.name n)
            true
            (List.mem `All_abort outcomes))
        [ 2; 3 ])
    Catalog.all

let test_explore_state_bound () =
  let raised =
    try
      ignore (Explore.reachable ~max_states:3 Catalog.three_phase ~n:3);
      false
    with Failure _ -> true
  in
  check Alcotest.bool "bound enforced" true raised

(* ------------------------------------------------------------------ *)
(* Analysis: the paper's structural facts                              *)
(* ------------------------------------------------------------------ *)

let kinds_of a s = Analysis.concurrent_kinds a s

let test_2pc_violates_lemmas () =
  let a = Analysis.analyze Catalog.two_phase ~n:3 in
  (* Section 3, fact 1: the slave wait state is concurrent with both a
     commit and an abort. *)
  let kinds = kinds_of a (M.Slave, "w") in
  check Alcotest.bool "commit in C(w)" true (List.mem M.Commit kinds);
  check Alcotest.bool "abort in C(w)" true (List.mem M.Abort kinds);
  check Alcotest.bool "lemma1 violated" true (Analysis.lemma1_violations a <> []);
  (* Section 3, fact 2: w is noncommittable yet concurrent with a
     commit. *)
  check Alcotest.bool "w noncommittable" false (Analysis.committable a (M.Slave, "w"));
  check Alcotest.bool "lemma2 violated" true
    (List.mem (M.Slave, "w") (Analysis.lemma2_violations a));
  check Alcotest.bool "overall" false (Analysis.satisfies_lemmas a)

let test_3pc_satisfies_lemmas () =
  let a = Analysis.analyze Catalog.three_phase ~n:3 in
  check Alcotest.bool "lemma1+2 hold" true (Analysis.satisfies_lemmas a);
  (* C(w) has an abort but no commit; C(p) has a commit but no abort. *)
  let w = kinds_of a (M.Slave, "w") and p = kinds_of a (M.Slave, "p") in
  check Alcotest.bool "no commit in C(w)" false (List.mem M.Commit w);
  check Alcotest.bool "abort in C(w)" true (List.mem M.Abort w);
  check Alcotest.bool "commit in C(p)" true (List.mem M.Commit p);
  check Alcotest.bool "no abort in C(p)" false (List.mem M.Abort p);
  (* Committability: p yes, w no. *)
  check Alcotest.bool "p committable" true (Analysis.committable a (M.Slave, "p"));
  check Alcotest.bool "w noncommittable" false (Analysis.committable a (M.Slave, "w"))

let test_ext2pc_two_site_vs_multisite () =
  let a2 = Analysis.analyze Catalog.extended_two_phase ~n:2 in
  check Alcotest.bool "n=2 satisfies lemmas" true (Analysis.satisfies_lemmas a2);
  let a3 = Analysis.analyze Catalog.extended_two_phase ~n:3 in
  check Alcotest.bool "n=3 violates lemmas" false (Analysis.satisfies_lemmas a3);
  (* The violation appears exactly at the slave wait state: with a third
     site, one slave can be in w while another has already committed. *)
  check Alcotest.bool "w is the violation" true
    (List.mem (M.Slave, "w") (Analysis.lemma1_violations a3))

let test_thm10_candidates () =
  (* Theorem 10 preconditions: 3PC (plain and Fig. 8) and quorum 3PC
     qualify; 2PC and extended 2PC (multisite) do not. *)
  let sat name n =
    match Catalog.find name with
    | None -> Alcotest.fail ("missing " ^ name)
    | Some p -> Analysis.satisfies_lemmas (Analysis.analyze p ~n)
  in
  check Alcotest.bool "3pc ok" true (sat "3pc" 3);
  check Alcotest.bool "3pc-fig8 ok" true (sat "3pc-fig8" 3);
  check Alcotest.bool "quorum3pc ok" true (sat "quorum3pc" 3);
  check Alcotest.bool "2pc fails" false (sat "2pc" 3);
  check Alcotest.bool "ext2pc fails at n=3" false (sat "ext2pc" 3)

let test_sender_sets () =
  let a = Analysis.analyze Catalog.three_phase ~n:3 in
  (* The slave wait state receives prepare/abort, both sent by master
     transitions out of w1. *)
  let senders = Analysis.sender_set a (M.Slave, "w") in
  check Alcotest.bool "w1 in S(w)" true (List.mem (M.Master, "w1") senders);
  (* The slave p state receives commit (from p1) and abort (from w1). *)
  let senders_p = Analysis.sender_set a (M.Slave, "p") in
  check Alcotest.bool "p1 in S(p)" true (List.mem (M.Master, "p1") senders_p);
  check Alcotest.bool "w1 in S(p)" true (List.mem (M.Master, "w1") senders_p);
  (* The master w1 state receives yes/no, sent by slave q transitions. *)
  let senders_w1 = Analysis.sender_set a (M.Master, "w1") in
  check Alcotest.bool "q in S(w1)" true (List.mem (M.Slave, "q") senders_w1)

(* ------------------------------------------------------------------ *)
(* Rule(a)/(b) augmentation                                            *)
(* ------------------------------------------------------------------ *)

let assignment a state =
  match Augment.assignment_for a state with
  | Some x -> x
  | None ->
      Alcotest.fail
        (Format.asprintf "no assignment for %a" Analysis.pp_site_state state)

let test_augment_2pc_two_site () =
  let aug = Augment.apply_rules (Analysis.analyze Catalog.two_phase ~n:2) in
  let w1 = assignment aug (M.Master, "w1") in
  check Alcotest.bool "w1 timeout abort" true (w1.Augment.timeout = Augment.To_abort);
  (* The classical two-site result: the slave in w times out to commit,
     because the master may already have committed. *)
  let w = assignment aug (M.Slave, "w") in
  check Alcotest.bool "w timeout commit" true (w.Augment.timeout = Augment.To_commit);
  check Alcotest.bool "w UD abort" true
    (w.Augment.on_undeliverable = Some Augment.To_abort)

let test_augment_ext2pc_two_site () =
  let aug =
    Augment.apply_rules (Analysis.analyze Catalog.extended_two_phase ~n:2)
  in
  let p1 = assignment aug (M.Master, "p1") in
  check Alcotest.bool "p1 timeout commit" true
    (p1.Augment.timeout = Augment.To_commit);
  check Alcotest.bool "p1 UD abort" true
    (p1.Augment.on_undeliverable = Some Augment.To_abort);
  let w = assignment aug (M.Slave, "w") in
  check Alcotest.bool "w timeout abort" true (w.Augment.timeout = Augment.To_abort)

let test_augment_3pc () =
  let aug = Augment.apply_rules (Analysis.analyze Catalog.three_phase ~n:3) in
  let w = assignment aug (M.Slave, "w") in
  let p = assignment aug (M.Slave, "p") in
  let p1 = assignment aug (M.Master, "p1") in
  check Alcotest.bool "slave w -> abort" true (w.Augment.timeout = Augment.To_abort);
  check Alcotest.bool "slave p -> commit" true (p.Augment.timeout = Augment.To_commit);
  (* Mechanical Rule(a): C(p1) holds no commit state, so p1 times out to
     abort — the "strict" strawman, Fsa_actor.three_phase_rules_strict. *)
  check Alcotest.bool "master p1 -> abort" true
    (p1.Augment.timeout = Augment.To_abort);
  (* The slave initial state waits for xact whose sender (q1) never
     times out: Rule(b) has no evidence — reported as ambiguous. *)
  let ambiguous = Augment.ambiguous aug in
  check Alcotest.bool "q ambiguous" true
    (List.exists (fun a -> a.Augment.state = (M.Slave, "q")) ambiguous)

(* ------------------------------------------------------------------ *)
(* Cross-validation: the timed actors land in FSA-reachable terminals  *)
(* ------------------------------------------------------------------ *)

let test_actors_land_in_fsa_terminals () =
  (* For failure-free executions, the executable 2PC and 3PC actors use
     the same state names as their FSA counterparts; every final global
     state the simulator produces must be a terminal global state the
     formal exploration reaches. *)
  let t_unit = Vtime.of_int 1000 in
  let pairs : (Site.packed * M.t) list =
    [
      (Fsa_actor.two_phase, Catalog.two_phase);
      (Fsa_actor.three_phase, Catalog.three_phase);
    ]
  in
  List.iter
    (fun ((module P : Site.S), fsa) ->
      List.iter
        (fun n ->
          List.iter
            (fun votes ->
              let base = Runner.default_config ~n ~t_unit () in
              let config =
                { base with Runner.votes; trace_enabled = false }
              in
              let result = Runner.run (module P) config in
              let finals =
                Array.map
                  (fun (s : Runner.site_result) -> s.final_state)
                  result.sites
              in
              let reachable = Explore.reachable fsa ~n in
              let matching =
                List.exists
                  (fun (g : Explore.global) ->
                    Explore.is_terminal fsa g && g.locals = finals)
                  reachable
              in
              check Alcotest.bool
                (Printf.sprintf "%s n=%d finals %s reachable in FSA" P.name n
                   (String.concat "," (Array.to_list finals)))
                true matching)
            [
              [];
              [ (Site_id.of_int 2, false) ];
              [ (Site_id.of_int n, false) ];
            ])
        [ 2; 3 ])
    pairs

(* ------------------------------------------------------------------ *)
(* DOT rendering                                                       *)
(* ------------------------------------------------------------------ *)

let test_to_dot () =
  let dot = M.to_dot Catalog.three_phase in
  let contains needle =
    let nh = String.length dot and nn = String.length needle in
    let rec scan i =
      if i + nn > nh then false
      else if String.sub dot i nn = needle then true
      else scan (i + 1)
    in
    scan 0
  in
  check Alcotest.bool "digraph header" true (contains "digraph \"3pc\"");
  check Alcotest.bool "master cluster" true (contains "cluster_master");
  check Alcotest.bool "slave cluster" true (contains "cluster_slave");
  check Alcotest.bool "commit shape" true
    (contains "master_c1 [label=\"c1\", shape=doublecircle]");
  check Alcotest.bool "abort shape" true (contains "shape=doubleoctagon");
  check Alcotest.bool "prepare edge" true
    (contains "master_w1 -> master_p1 [label=\"all yes / !prepare\"]");
  check Alcotest.bool "slave vote edge" true
    (contains "slave_q -> slave_w [label=\"xact / !yes->m\"]");
  (* every catalogued protocol renders without raising *)
  List.iter (fun p -> ignore (M.to_dot p)) Catalog.all

let () =
  Alcotest.run "commit_fsa"
    [
      ( "machine",
        [
          Alcotest.test_case "valid protocol accepted" `Quick test_validate_ok;
          Alcotest.test_case "duplicate state rejected" `Quick
            test_validate_duplicate_state;
          Alcotest.test_case "unknown target rejected" `Quick
            test_validate_unknown_target;
          Alcotest.test_case "start on slave rejected" `Quick
            test_validate_start_on_slave;
          Alcotest.test_case "wrong action direction rejected" `Quick
            test_validate_wrong_direction;
          Alcotest.test_case "catalog validates" `Quick test_catalog_all_valid;
        ] );
      ( "explore",
        [
          Alcotest.test_case "2pc state counts" `Quick test_explore_2pc_counts;
          Alcotest.test_case "terminal outcomes atomic" `Slow
            test_explore_terminals_atomic;
          Alcotest.test_case "state bound enforced" `Quick
            test_explore_state_bound;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "2pc violates Lemma 1 and 2" `Quick
            test_2pc_violates_lemmas;
          Alcotest.test_case "3pc satisfies Lemma 1 and 2" `Quick
            test_3pc_satisfies_lemmas;
          Alcotest.test_case "ext2pc: resilient shape at n=2 only" `Quick
            test_ext2pc_two_site_vs_multisite;
          Alcotest.test_case "Theorem 10 candidates" `Quick test_thm10_candidates;
          Alcotest.test_case "sender sets" `Quick test_sender_sets;
        ] );
      ("dot", [ Alcotest.test_case "graphviz rendering" `Quick test_to_dot ]);
      ( "cross-validation",
        [
          Alcotest.test_case "actor finals are FSA terminals" `Quick
            test_actors_land_in_fsa_terminals;
        ] );
      ( "augment",
        [
          Alcotest.test_case "2pc two-site rules" `Quick test_augment_2pc_two_site;
          Alcotest.test_case "ext2pc two-site rules" `Quick
            test_augment_ext2pc_two_site;
          Alcotest.test_case "3pc rules and ambiguity" `Quick test_augment_3pc;
        ] );
    ]
