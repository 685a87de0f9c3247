(* Protocol autopsy: the paper's counterexamples, replayed message by
   message.

     dune exec examples/protocol_autopsy.exe

   Four exhibits:
     A. Section 3, observation 1 — extended 2PC is inconsistent with
        three sites when a commit command bounces.
     B. Section 3, observation 2 — 3PC + timeout/UD rules is
        inconsistent when prepare3 bounces.
     C. Section 5.3, "a fly in the ointment" — why Fig. 8 adds the
        slave transition w -> c: a G2 slave that never saw a prepare
        must accept the commit relayed by a G2 peer.
     D. Section 6, case 3.2.2.2 — the only unbounded wait, and the 5T
        self-commit that fixes it. *)

let t_unit = Vtime.of_int 1000

let full = Delay.full ~t_max:t_unit

let partition ?heals_after ~g2 ~at ~n () =
  let starts_at = Vtime.of_int at in
  Partition.make
    ?heals_at:
      (Option.map (fun h -> Vtime.add starts_at (Vtime.of_int h)) heals_after)
    ~group2:(Site_id.set_of_ints g2) ~starts_at ~n ()

let replay ~label ~commentary protocol config =
  Format.printf "=============================================================@.";
  Format.printf "%s@." label;
  Format.printf "%s@.@." commentary;
  let result = Runner.run protocol config in
  (* The runs are deterministic, so re-running for the diagram replays
     the identical execution. *)
  print_string (Diagram.run ~width:20 protocol config);
  Format.printf "@.%a" Runner.pp_result result;
  Format.printf "verdict: %a@.@." Verdict.pp (Verdict.of_result result);
  result

let base ~n partition =
  let config = Runner.default_config ~n ~t_unit () in
  { config with Runner.partition; delay = full; trace_enabled = true }

let () =
  (* A: extended 2PC, n=3.  Master has sent commit2/commit3 (it is in
     p1 awaiting acks); the partition bounces commit3.  Rule(b) sends
     the master to abort on the returned message — but site2 already
     committed. *)
  let _ =
    replay
      ~label:"A. Extended 2PC, three sites (Section 3, observation 1)"
      ~commentary:
        "Partition at 2.1T separates site3 just as the commit commands \
         travel.\ncommit2 is delivered; commit3 bounces; the master aborts \
         on UD(commit3)."
      Fsa_actor.ext_two_phase
      (base ~n:3 (partition ~g2:[ 3 ] ~at:2100 ~n:3 ()))
  in

  (* B: 3PC + rules, n=3.  prepare3 bounces; site3 times out in w and
     aborts while the master and site2 commit. *)
  let _ =
    replay
      ~label:"B. 3PC + Rule(a)/(b) only (Section 3, observation 2)"
      ~commentary:
        "Partition at 2.1T renders prepare3 undeliverable.  site3 times \
         out in w3 and aborts;\nthe p-side commits.  Lemma 3: no assignment \
         of timeout/UD transitions can fix this."
      Fsa_actor.three_phase_rules
      (base ~n:3 (partition ~g2:[ 3 ] ~at:2100 ~n:3 ()))
  in

  (* C: the Fig. 8 modification at work.  Asymmetric link delays let
     prepare3 through and bounce prepare4; site3 commits G2 on its
     bounced ack and its commit reaches site4 while site4 is still in
     w — only the added w -> c transition saves site4. *)
  let per_link =
    Delay.Per_link
      (fun src dst ->
        match (Site_id.to_int src, Site_id.to_int dst) with
        | 1, 4 | 4, 1 -> Vtime.of_int 900
        | 1, 3 | 3, 1 -> Vtime.of_int 10
        | _, _ -> Vtime.of_int 100)
  in
  let config_c = base ~n:4 (partition ~g2:[ 3; 4 ] ~at:1815 ~n:4 ()) in
  let config_c = { config_c with Runner.delay = per_link } in
  let result_c =
    replay
      ~label:"C. The termination protocol and Fig. 8 (the fly in the ointment)"
      ~commentary:
        "G2 = {site3, site4}.  site3 received its prepare; its ack \
         bounces, so it commits G2\n(FACT1 case 5) and relays the commit.  \
         site4 never saw a prepare: it accepts the\nrelayed commit in state \
         w via the Fig. 8 transition (FACT1 case 6)."
      (module Termination.Static)
      config_c
  in
  (match (Runner.site_result result_c (Site_id.of_int 4)).reasons with
  | [ "fact1-case6" ] ->
      Format.printf
        "site4 committed through FACT1 case 6 (the Fig. 8 w -> c transition).@.@."
  | other ->
      Format.printf "site4 reasons: %s@.@." (String.concat "," other));

  (* D: case 3.2.2.2. *)
  let p_d = partition ~g2:[ 2 ] ~at:1750 ~heals_after:1000 ~n:3 () in
  let config_d =
    {
      (Runner.default_config ~n:3 ~t_unit ()) with
      Runner.partition = p_d;
      trace_enabled = true;
    }
  in
  let _ =
    replay
      ~label:"D1. Case 3.2.2.2 under the static protocol (blocks)"
      ~commentary:
        "The master committed; commit2 bounced; the network heals before \
         site2's probe,\nso the probe reaches a decided master that ignores \
         it.  The static protocol\n(valid only without transient \
         partitions) strands site2."
      (module Termination.Static)
      config_d
  in
  let _ =
    replay
      ~label:"D2. Case 3.2.2.2 under the Section 6 variant (commits at 5T)"
      ~commentary:
        "Same scenario.  Only case 3.2.2.2 can keep a probing slave \
         waiting beyond 5T,\nand in that case the master has committed — \
         so after 5T site2 commits itself."
      (module Termination.Transient)
      config_d
  in
  ()
