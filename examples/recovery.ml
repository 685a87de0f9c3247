(* Crash, recover, resolve: the Section 2 single-site scheme meeting
   the commit protocol.

     dune exec examples/recovery.exe

   A transfer is mid-commit when site3 dies.  The survivors terminate
   (the transfer commits); site3 restarts later with a prepared,
   undecided transaction in its log.  Local recovery replays what it
   can and reports the in-doubt transaction; the recovery rule adopts
   the first decision found in a peer's stable log — after which the
   books balance. *)

module Tm = Commit_db.Tm
module Txn_core = Commit_db.Txn_core

let t_unit = Vtime.of_int 1000

let updates_site3 = [ { Wal.key = "acct:b"; value = "1070" } ]

let () =
  let transfer =
    Tm.txn ~tid:1 ~start_at:Vtime.zero
      [
        (Site_id.of_int 2, [ { Wal.key = "acct:a"; value = "930" } ]);
        (Site_id.of_int 3, updates_site3);
      ]
  in
  let config =
    {
      (Tm.default_config ~protocol:(module Termination.Static) ()) with
      Tm.initial =
        [
          (Site_id.of_int 2, [ ("acct:a", "1000") ]);
          (Site_id.of_int 3, [ ("acct:b", "1000") ]);
        ];
      delay = Delay.full ~t_max:t_unit;
      crashes = [ (Site_id.of_int 3, Vtime.of_int 3500) ];
      trace_enabled = false;
    }
  in
  let report = Tm.run config [ transfer ] in
  Format.printf "the run: site3 died at 3.5T, after acknowledging its prepare@.";
  Format.printf "%a@." Tm.pp_report report;
  let store3 = report.Tm.stores.(2) in
  Format.printf "site3's write-ahead log at restart:@.";
  List.iter
    (fun r -> Format.printf "  %a@." Wal.pp r)
    (Durable_site.wal_records store3);
  Format.printf "@.recovery at site3:@.";
  let site3 = Site_id.of_int 3 in
  List.iter
    (fun tid ->
      match Txn_core.peer_decision report.Tm.stores ~site:site3 ~tid with
      | Some decision ->
          Format.printf "  t%d is in doubt -> peers say: %a@." tid
            Types.pp_decision decision;
          Txn_core.adopt store3 ~tid ~writes:updates_site3 decision
      | None -> Format.printf "  t%d is in doubt -> no peer has decided yet@." tid)
    (Durable_site.recover store3).in_doubt;
  Format.printf "@.after resolution:@.";
  Format.printf "  acct:a at site2 = %s@."
    (Option.value
       (Durable_site.read report.Tm.stores.(1) "acct:a")
       ~default:"?");
  Format.printf "  acct:b at site3 = %s@."
    (Option.value (Durable_site.read store3 "acct:b") ~default:"?");
  Format.printf "  total = %d (started at 2000)@."
    (Txn_core.money ~prefix:"acct:" report.Tm.stores);
  Format.printf
    "@.the paper's division of labour, in one run: the termination protocol@.";
  Format.printf
    "settles the operational sites during the failure; Section 2's log and@.";
  Format.printf
    "idempotent redo bring the dead site back; and a prepared participant@.";
  Format.printf "never decides alone — it asks the survivors.@."
