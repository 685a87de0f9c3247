open Machine

let st id kind = { id; kind }

let tr ?(votes_yes = false) source guard target actions =
  { source; guard; target; actions; votes_yes }

(* Fig. 1.  The master reaches c1/a1 at the moment it sends the command:
   two-phase commit has no acknowledgement phase. *)
let two_phase =
  validate_exn
    {
      name = "2pc";
      master =
        {
          role = Master;
          initial = "q1";
          states =
            [ st "q1" Initial; st "w1" Intermediate; st "c1" Commit; st "a1" Abort ];
          transitions =
            [
              tr "q1" Start "w1" [ Send_slaves "xact" ];
              tr ~votes_yes:true "w1" (Recv_all_votes "yes") "c1"
                [ Send_slaves "commit" ];
              tr "w1" (Recv "no") "a1" [ Send_slaves "abort" ];
            ];
        };
      slave =
        {
          role = Slave;
          initial = "q";
          states =
            [ st "q" Initial; st "w" Intermediate; st "c" Commit; st "a" Abort ];
          transitions =
            [
              tr ~votes_yes:true "q" (Recv "xact") "w" [ Send_master "yes" ];
              tr "q" (Recv "xact") "a" [ Send_master "no" ];
              tr "w" (Recv "commit") "c" [];
              tr "w" (Recv "abort") "a" [];
            ];
        };
    }

(* The two-phase skeleton with an acknowledgement phase.  The master
   commits only after every slave acknowledged the commit command; this
   is the shape whose Rule(a)/(b) augmentation is the extended protocol
   of Fig. 2 (see DESIGN.md for the reconstruction argument). *)
let extended_two_phase =
  validate_exn
    {
      name = "ext2pc";
      master =
        {
          role = Master;
          initial = "q1";
          states =
            [
              st "q1" Initial;
              st "w1" Intermediate;
              st "p1" Intermediate;
              st "c1" Commit;
              st "a1" Abort;
            ];
          transitions =
            [
              tr "q1" Start "w1" [ Send_slaves "xact" ];
              tr ~votes_yes:true "w1" (Recv_all_votes "yes") "p1"
                [ Send_slaves "commit" ];
              tr "w1" (Recv "no") "a1" [ Send_slaves "abort" ];
              tr "p1" (Recv_all_votes "ack") "c1" [];
            ];
        };
      slave =
        {
          role = Slave;
          initial = "q";
          states =
            [ st "q" Initial; st "w" Intermediate; st "c" Commit; st "a" Abort ];
          transitions =
            [
              tr ~votes_yes:true "q" (Recv "xact") "w" [ Send_master "yes" ];
              tr "q" (Recv "xact") "a" [ Send_master "no" ];
              tr "w" (Recv "commit") "c" [ Send_master "ack" ];
              tr "w" (Recv "abort") "a" [];
            ];
        };
    }

let three_phase_master =
  {
    role = Master;
    initial = "q1";
    states =
      [
        st "q1" Initial;
        st "w1" Intermediate;
        st "p1" Intermediate;
        st "c1" Commit;
        st "a1" Abort;
      ];
    transitions =
      [
        tr "q1" Start "w1" [ Send_slaves "xact" ];
        tr ~votes_yes:true "w1" (Recv_all_votes "yes") "p1"
          [ Send_slaves "prepare" ];
        tr "w1" (Recv "no") "a1" [ Send_slaves "abort" ];
        tr "p1" (Recv_all_votes "ack") "c1" [ Send_slaves "commit" ];
      ];
  }

let three_phase_slave_transitions =
  [
    tr ~votes_yes:true "q" (Recv "xact") "w" [ Send_master "yes" ];
    tr "q" (Recv "xact") "a" [ Send_master "no" ];
    tr "w" (Recv "prepare") "p" [ Send_master "ack" ];
    tr "w" (Recv "abort") "a" [];
    tr "p" (Recv "commit") "c" [];
    tr "p" (Recv "abort") "a" [];
  ]

let three_phase_slave_states =
  [
    st "q" Initial;
    st "w" Intermediate;
    st "p" Intermediate;
    st "c" Commit;
    st "a" Abort;
  ]

let three_phase =
  validate_exn
    {
      name = "3pc";
      master = three_phase_master;
      slave =
        {
          role = Slave;
          initial = "q";
          states = three_phase_slave_states;
          transitions = three_phase_slave_transitions;
        };
    }

(* Fig. 8: the only change is the slave transition w --commit--> c. *)
let modified_three_phase =
  validate_exn
    {
      name = "3pc-fig8";
      master = three_phase_master;
      slave =
        {
          role = Slave;
          initial = "q";
          states = three_phase_slave_states;
          transitions =
            three_phase_slave_transitions @ [ tr "w" (Recv "commit") "c" [] ];
        };
    }

(* Skeen's quorum-based commit has the same phase structure as 3PC at
   this level of abstraction (its novelty is the quorum termination
   rule, which is dynamic, not part of the failure-free FSA). *)
let quorum_three_phase =
  validate_exn
    {
      name = "quorum3pc";
      master = { three_phase_master with initial = "q1" };
      slave =
        {
          role = Slave;
          initial = "q";
          states = three_phase_slave_states;
          transitions = three_phase_slave_transitions;
        };
    }

(* Four-phase commit: an extra buffering round (pre-prepare/pre-ack)
   between the vote and the prepare.  Structurally it satisfies Lemma 1
   and Lemma 2 with "prepare" still the noncommittable-to-committable
   message m, so Theorem 10 applies: Termination.Four_phase is the
   termination protocol derived from this FSA. *)
let four_phase =
  validate_exn
    {
      name = "4pc";
      master =
        {
          role = Master;
          initial = "q1";
          states =
            [
              st "q1" Initial;
              st "w1" Intermediate;
              st "x1" Intermediate;
              st "p1" Intermediate;
              st "c1" Commit;
              st "a1" Abort;
            ];
          transitions =
            [
              tr "q1" Start "w1" [ Send_slaves "xact" ];
              tr ~votes_yes:true "w1" (Recv_all_votes "yes") "x1"
                [ Send_slaves "pre-prepare" ];
              tr "w1" (Recv "no") "a1" [ Send_slaves "abort" ];
              tr "x1" (Recv_all_votes "pre-ack") "p1" [ Send_slaves "prepare" ];
              tr "p1" (Recv_all_votes "ack") "c1" [ Send_slaves "commit" ];
            ];
        };
      slave =
        {
          role = Slave;
          initial = "q";
          states =
            [
              st "q" Initial;
              st "w" Intermediate;
              st "x" Intermediate;
              st "p" Intermediate;
              st "c" Commit;
              st "a" Abort;
            ];
          transitions =
            [
              tr ~votes_yes:true "q" (Recv "xact") "w" [ Send_master "yes" ];
              tr "q" (Recv "xact") "a" [ Send_master "no" ];
              tr "w" (Recv "pre-prepare") "x" [ Send_master "pre-ack" ];
              tr "w" (Recv "abort") "a" [];
              tr "x" (Recv "prepare") "p" [ Send_master "ack" ];
              tr "x" (Recv "abort") "a" [];
              (* the Fig. 8-style early-commit acceptances the
                 termination protocol needs *)
              tr "w" (Recv "commit") "c" [];
              tr "x" (Recv "commit") "c" [];
              tr "p" (Recv "commit") "c" [];
              tr "p" (Recv "abort") "a" [];
            ];
        };
    }

let all =
  [
    two_phase;
    extended_two_phase;
    three_phase;
    modified_three_phase;
    quorum_three_phase;
    four_phase;
  ]

let find name = List.find_opt (fun p -> String.equal p.name name) all
