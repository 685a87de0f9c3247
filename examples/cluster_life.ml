(* A day in the life of the cluster: a steady stream of transfers, a
   partition that opens and heals, and the throughput timeline under
   three commit protocols.

     dune exec examples/cluster_life.exe

   60 cross-site transfers arrive every 2T; the network loses site3
   between 40T and 80T.  Watch what each protocol does to goodput while
   the partition is up, and verify nobody loses money. *)

module Tm = Commit_db.Tm
module Workload = Commit_db.Workload
module Txn_core = Commit_db.Txn_core


let t mult = mult * 1000

let n_txns = 60

let workload =
  Workload.bank_transfers ~n:4 ~pairs:n_txns ~balance:1000 ~amount:25
    ~spacing:(Vtime.of_int (t 2)) ~seed:7L

let partition =
  Partition.make
    ~group2:(Site_id.set_of_ints [ 3 ])
    ~starts_at:(Vtime.of_int (t 40))
    ~heals_at:(Vtime.of_int (t 80))
    ~n:4 ()

let expected = Workload.expected_total workload ~prefix:"acct:"

let run protocol =
  let config =
    {
      (Tm.default_config ~protocol ~n:4 ()) with
      Tm.initial = workload.Workload.initial;
      partition;
      horizon = Vtime.of_int (t 200);
    }
  in
  Tm.run config workload.Workload.txns

let bucket_of at = Vtime.to_int at / t 10

let committed_per_bucket report =
  let buckets = Array.make 21 0 in
  List.iter
    (fun (r : Tm.txn_report) ->
      match (r.status, r.all_decided_at) with
      | Tm.Txn_committed, Some at ->
          let b = bucket_of at in
          if b < Array.length buckets then buckets.(b) <- buckets.(b) + 1
      | _ -> ())
    report.Tm.txns;
  buckets

let () =
  let protocols =
    [
      ("2pc", (module Two_phase : Site.S));
      ("quorum", (module Quorum));
      ("termination-transient", (module Termination.Transient));
    ]
  in
  let reports = List.map (fun (name, p) -> (name, run p)) protocols in
  Format.printf
    "60 transfers, one every 2T; site3 cut off from 40T to 80T.@.@.";
  Format.printf "commits completed per 10T interval:@.";
  Format.printf "  %-10s" "interval";
  List.iter (fun (name, _) -> Format.printf "%-24s" name) reports;
  Format.printf "@.";
  for b = 0 to 13 do
    Format.printf "  %3dT-%3dT " (b * 10) ((b + 1) * 10);
    List.iter
      (fun (_, report) ->
        let buckets = committed_per_bucket report in
        let marker =
          if b * 10 >= 40 && b * 10 < 80 then " <- partition up" else ""
        in
        ignore marker;
        Format.printf "%-24d" buckets.(b))
      reports;
    if b * 10 >= 40 && b * 10 < 80 then Format.printf " | partition up";
    Format.printf "@."
  done;
  Format.printf "@.totals:@.";
  List.iter
    (fun (name, report) ->
      Format.printf
        "  %-22s committed=%-3d aborted=%-3d blocked=%-3d starved=%-3d \
         money %d/%d@."
        name
        (Tm.count_status report Tm.Txn_committed)
        (Tm.count_status report Tm.Txn_aborted)
        (Tm.count_status report Tm.Txn_blocked)
        (Tm.count_status report Tm.Txn_waiting_locks)
        (Txn_core.money ~prefix:"acct:" report.Tm.stores)
        expected)
    reports;
  Format.printf
    "@.every transaction spans all four sites, so nothing can commit while@.";
  Format.printf
    "site3 is cut off.  The difference is what happens to the in-doubt@.";
  Format.printf
    "transfers: the termination protocol (and quorum, which has a majority@.";
  Format.printf
    "here) abort them within a bounded window, freeing their locks for@.";
  Format.printf
    "retries -- 2pc leaves them blocked forever, even after the heal.@."
