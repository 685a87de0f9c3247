(* Quickstart: run the paper's termination protocol once without and
   once with a network partition, and watch it terminate everybody.

     dune exec examples/quickstart.exe

   Three sites, T = 1000 ticks.  The partition cuts site3 off just as
   the master is collecting acknowledgements — the scenario in which
   plain 3PC would block and Rule(a)/(b) augmentation would be
   inconsistent. *)

let t_unit = Vtime.of_int 1000

let print_outcome label result =
  Format.printf "== %s ==@." label;
  Format.printf "%a" Runner.pp_result result;
  Format.printf "verdict: %a@.@." Verdict.pp (Verdict.of_result result)

let () =
  (* 1. Failure-free: the ordinary three-phase flow. *)
  let config = Runner.default_config ~n:3 ~t_unit () in
  let config = { config with Runner.trace_enabled = false } in
  print_outcome "failure-free" (Runner.run (module Termination.Static) config);

  (* 2. A simple partition: G2 = {site3}, starting at 2.1T — the
     prepares are in flight and prepare3 bounces off boundary B.  The
     master runs the Section 5 collection window; everyone aborts,
     consistently, without blocking. *)
  let partition =
    Partition.make
      ~group2:(Site_id.set_of_ints [ 3 ])
      ~starts_at:(Vtime.of_int 2100) ~n:3 ()
  in
  let config =
    {
      config with
      Runner.partition;
      delay = Delay.full ~t_max:t_unit;
      trace_enabled = true;
    }
  in
  let result = Runner.run (module Termination.Static) config in
  Format.printf "trace of the partitioned run:@.";
  Trace.iter
    (fun (e : Trace.entry) ->
      if e.topic <> "net" then Format.printf "  %a@." Trace.pp_entry e)
    result.trace;
  Format.printf "@.";
  print_outcome "partition at 2.1T cutting off site3" result;

  (* 3. The same scenario under plain 3PC: blocked sites. *)
  let result_3pc = Runner.run Fsa_actor.three_phase config in
  print_outcome "same scenario, plain 3PC (blocks)" result_3pc
