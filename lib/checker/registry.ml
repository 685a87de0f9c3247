type entry = { name : string; summary : string; protocol : Site.packed }

(* The one place a protocol family is registered: tp_sim's --protocol
   enums, `tp_sim list`, and the bench head-to-heads all read this
   table, so adding a family is one line here. *)
let all : entry list =
  [
    {
      name = "2pc";
      summary = "two-phase commit; blocks when the master is unreachable";
      protocol = Fsa_actor.two_phase;
    }
    ;
    {
      name = "ext2pc";
      summary = "extended 2PC (Fig. 2) with Rule (a)/(b) timeout/UD transitions";
      protocol = Fsa_actor.ext_two_phase;
    }
    ;
    {
      name = "3pc";
      summary = "three-phase commit, no termination rules";
      protocol = Fsa_actor.three_phase;
    }
    ;
    {
      name = "3pc+rules";
      summary = "3PC with the commit-leaning timeout/UD assignment (Section 3)";
      protocol = Fsa_actor.three_phase_rules;
    }
    ;
    {
      name = "3pc+rules-strict";
      summary = "3PC with Rule (a)/(b) timeout/UD transitions at n=3";
      protocol = Fsa_actor.three_phase_rules_strict;
    }
    ;
    {
      name = "3pc-skeen";
      summary = "Skeen-style 3PC with cooperative termination";
      protocol = Inquiry.skeen;
    }
    ;
    {
      name = "quorum";
      summary = "quorum-commit baseline with state-inquiry termination";
      protocol = Inquiry.quorum;
    }
    ;
    {
      name = "termination";
      summary = "the paper's termination protocol, static partitions";
      protocol = (module Termination.Static);
    }
    ;
    {
      name = "termination-transient";
      summary = "the paper's termination protocol, transient partitions";
      protocol = (module Termination.Transient);
    }
    ;
    {
      name = "4pc-termination";
      summary = "Theorem 10 four-phase commit with termination";
      protocol = (module Termination.Four_phase);
    }
    ;
    {
      name = "paxos";
      summary = "Paxos Commit, F=1 (3 acceptors); survives master failure";
      protocol = Paxos_commit.protocol;
    }
    ;
    {
      name = "paxos-f0";
      summary = "Paxos Commit fast path, F=0; collapses to 2PC";
      protocol = Paxos_commit.protocol_f0;
    }
    ;
  ]

let enum = List.map (fun e -> (e.name, e.protocol)) all

let find name = List.find_opt (fun e -> String.equal e.name name) all
