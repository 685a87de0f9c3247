(* Partition storm: every protocol against every cut, instant, delay
   model and seed — the paper's claims as one table.

     dune exec examples/partition_storm.exe

   Rows are protocols, columns aggregate a full scenario grid (static
   partitions, and a second grid with transient ones).  Expect:

   - 2pc / 3pc / quorum: zero violations but blocking;
   - ext2pc, 3pc+rules (both resolutions): atomicity violations;
   - termination: zero violations, zero blocking on static partitions;
   - termination-transient: zero/zero even when partitions heal. *)

let t_unit = Vtime.of_int 1000

let protocols : Site.packed list =
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
    (module Termination.Four_phase);
  ]

let grid ~n ~transient =
  let base = Runner.default_config ~n ~t_unit () in
  let g = Scenario.default_grid ~n ~t_unit in
  let g =
    if transient then
      {
        g with
        Scenario.heals_after =
          [
            None;
            Some (Vtime.of_int 1000);
            Some (Vtime.of_int 3000);
            Some (Vtime.of_int 6000);
          ];
      }
    else g
  in
  Scenario.configs ~base g

let storm ~n ~transient =
  Format.printf "--- n = %d, %s partitions (%d scenarios each) ---@." n
    (if transient then "static + transient" else "static")
    (List.length (grid ~n ~transient));
  List.iter
    (fun protocol ->
      let summary = Sweep.run protocol (grid ~n ~transient) in
      Format.printf "%a@." Sweep.pp_summary
        { summary with Sweep.violation_examples = []; blocked_examples = [] })
    protocols;
  Format.printf "@."

let () =
  storm ~n:3 ~transient:false;
  storm ~n:4 ~transient:false;
  storm ~n:3 ~transient:true;
  (* One named counterexample from each broken protocol, replayable. *)
  Format.printf "--- first counterexamples (replayable grid points) ---@.";
  List.iter
    (fun protocol ->
      let summary = Sweep.run ~keep:1 protocol (grid ~n:3 ~transient:false) in
      match summary.Sweep.violation_examples with
      | (config, v) :: _ ->
          Format.printf "%-18s %s@.                   -> %a@."
            summary.Sweep.protocol
            (Scenario.config_id config)
            Verdict.pp v
      | [] -> ())
    protocols
