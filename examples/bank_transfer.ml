(* Bank transfers across a partition: the database-level cost of a
   commit protocol, measured.

     dune exec examples/bank_transfer.exe

   A three-site bank.  Eight transfers, each moving money between
   accounts on two different sites, with a partition cutting site3 off
   mid-stream.  We run the same workload under two-phase commit (which
   blocks and strands locks), extended 2PC (which can tear a transfer
   apart and lose money), and the paper's termination protocol (which
   terminates everything consistently). *)

module Tm = Commit_db.Tm
module Workload = Commit_db.Workload
module Txn_core = Commit_db.Txn_core

let t_unit = Vtime.of_int 1000

let workload = Workload.bank_transfers ~n:3 ~pairs:8 ~balance:1000 ~amount:70
    ~spacing:(Vtime.of_int 6000) ~seed:2024L

let partition =
  (* Arrives in the middle of the third transfer's commit exchange. *)
  Partition.make
    ~group2:(Site_id.set_of_ints [ 3 ])
    ~starts_at:(Vtime.of_int 20200) ~n:3 ()

let expected = Workload.expected_total workload ~prefix:"acct:"

let run protocol =
  let config =
    {
      (Tm.default_config ~protocol ()) with
      Tm.initial = workload.Workload.initial;
      partition;
      delay = Delay.full ~t_max:t_unit;
    }
  in
  Tm.run config workload.Workload.txns

let describe name report =
  let count s = Tm.count_status report s in
  let total = Txn_core.money ~prefix:"acct:" report.Tm.stores in
  Format.printf "%-22s committed=%d aborted=%d blocked=%d starved=%d@." name
    (count Tm.Txn_committed) (count Tm.Txn_aborted) (count Tm.Txn_blocked)
    (count Tm.Txn_waiting_locks);
  Format.printf "%-22s money: %d expected, %d on disk%s@.@." "" expected total
    (if total = expected then " (conserved)" else "  <-- MONEY LOST OR CREATED");
  report

let () =
  Format.printf
    "Eight cross-site transfers; site3 cut off at 20.2T (during transfer 3).@.@.";
  let _ = describe "2pc" (run Fsa_actor.two_phase) in
  let _ = describe "ext2pc" (run Fsa_actor.ext_two_phase) in
  let report = describe "termination (paper)" (run (module Termination.Static)) in

  (* With the termination protocol every store is cleanly terminated:
     recovery finds nothing in doubt. *)
  Array.iteri
    (fun i store ->
      let r = Durable_site.recover store in
      Format.printf "site%d recovery: %d redone, %d in doubt, %d aborted@."
        (i + 1)
        (List.length r.Durable_site.redone)
        (List.length r.Durable_site.in_doubt)
        (List.length r.Durable_site.aborted))
    report.Tm.stores;
  Format.printf "@.Transfer latencies under the termination protocol:@.";
  List.iter
    (fun (t : Tm.txn_report) ->
      Format.printf "  t%-2d %-10s latency %s@." t.spec.tid
        (Format.asprintf "%a" Tm.pp_status t.status)
        (match t.latency with
        | Some l -> Format.asprintf "%a" (Vtime.pp_in_t ~unit_t:t_unit) l
        | None -> "-"))
    report.Tm.txns
