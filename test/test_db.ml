(* Tests for the distributed-database substrate (lib/db): the 2PL lock
   manager, the transaction manager over the commit protocols, and the
   workload invariants (balance conservation; lock queueing behind a
   blocked protocol). *)

module Lock_manager = Commit_db.Lock_manager
module Tm = Commit_db.Tm
module Workload = Commit_db.Workload
module Txn_core = Commit_db.Txn_core

let check = Alcotest.check

let site = Site_id.of_int

let t_unit = Vtime.of_int 1000

(* ------------------------------------------------------------------ *)
(* Lock manager                                                        *)
(* ------------------------------------------------------------------ *)

let test_shared_locks_compatible () =
  let lm = Lock_manager.create () in
  check Alcotest.bool "t1 S granted" true
    (Lock_manager.acquire lm ~tid:1 ~key:"k" ~mode:Lock_manager.Shared = `Granted);
  check Alcotest.bool "t2 S granted" true
    (Lock_manager.acquire lm ~tid:2 ~key:"k" ~mode:Lock_manager.Shared = `Granted);
  check Alcotest.int "two holders" 2 (List.length (Lock_manager.holders lm ~key:"k"))

let test_exclusive_conflicts () =
  let lm = Lock_manager.create () in
  ignore (Lock_manager.acquire lm ~tid:1 ~key:"k" ~mode:Lock_manager.Exclusive);
  check Alcotest.bool "t2 X waits" true
    (Lock_manager.acquire lm ~tid:2 ~key:"k" ~mode:Lock_manager.Exclusive
    = `Waiting);
  check Alcotest.bool "t3 S waits too" true
    (Lock_manager.acquire lm ~tid:3 ~key:"k" ~mode:Lock_manager.Shared = `Waiting);
  check Alcotest.int "queue of two" 2 (List.length (Lock_manager.queued lm ~key:"k"))

let test_fifo_grant_on_release () =
  let lm = Lock_manager.create () in
  ignore (Lock_manager.acquire lm ~tid:1 ~key:"k" ~mode:Lock_manager.Exclusive);
  ignore (Lock_manager.acquire lm ~tid:2 ~key:"k" ~mode:Lock_manager.Exclusive);
  ignore (Lock_manager.acquire lm ~tid:3 ~key:"k" ~mode:Lock_manager.Exclusive);
  let granted = Lock_manager.release_all lm ~tid:1 in
  check Alcotest.int "one grant" 1 (List.length granted);
  check Alcotest.int "t2 first" 2 (List.hd granted).Lock_manager.tid;
  let granted2 = Lock_manager.release_all lm ~tid:2 in
  check Alcotest.int "t3 next" 3 (List.hd granted2).Lock_manager.tid

let test_shared_batch_grant () =
  let lm = Lock_manager.create () in
  ignore (Lock_manager.acquire lm ~tid:1 ~key:"k" ~mode:Lock_manager.Exclusive);
  ignore (Lock_manager.acquire lm ~tid:2 ~key:"k" ~mode:Lock_manager.Shared);
  ignore (Lock_manager.acquire lm ~tid:3 ~key:"k" ~mode:Lock_manager.Shared);
  let granted = Lock_manager.release_all lm ~tid:1 in
  check Alcotest.int "both readers granted together" 2 (List.length granted)

let test_reentrant_and_upgrade () =
  let lm = Lock_manager.create () in
  ignore (Lock_manager.acquire lm ~tid:1 ~key:"k" ~mode:Lock_manager.Shared);
  check Alcotest.bool "re-acquire S" true
    (Lock_manager.acquire lm ~tid:1 ~key:"k" ~mode:Lock_manager.Shared = `Granted);
  check Alcotest.bool "sole holder upgrades" true
    (Lock_manager.acquire lm ~tid:1 ~key:"k" ~mode:Lock_manager.Exclusive
    = `Granted);
  check Alcotest.bool "now exclusive" true
    (Lock_manager.holds lm ~tid:1 ~key:"k" = Some Lock_manager.Exclusive);
  check Alcotest.bool "X implies any re-acquire" true
    (Lock_manager.acquire lm ~tid:1 ~key:"k" ~mode:Lock_manager.Shared = `Granted)

let test_upgrade_waits_with_other_readers () =
  let lm = Lock_manager.create () in
  ignore (Lock_manager.acquire lm ~tid:1 ~key:"k" ~mode:Lock_manager.Shared);
  ignore (Lock_manager.acquire lm ~tid:2 ~key:"k" ~mode:Lock_manager.Shared);
  check Alcotest.bool "upgrade waits" true
    (Lock_manager.acquire lm ~tid:1 ~key:"k" ~mode:Lock_manager.Exclusive
    = `Waiting);
  (* When the other reader leaves, the upgrade is granted. *)
  let granted = Lock_manager.release_all lm ~tid:2 in
  check Alcotest.int "upgrade granted" 1 (List.length granted);
  check Alcotest.bool "exclusive now" true
    (Lock_manager.holds lm ~tid:1 ~key:"k" = Some Lock_manager.Exclusive)

let test_waits_for_and_cycle () =
  let lm = Lock_manager.create () in
  (* Simulate incremental 2PL acquiring: t1 holds a waits b; t2 holds b
     waits a — the classic deadlock. *)
  ignore (Lock_manager.acquire lm ~tid:1 ~key:"a" ~mode:Lock_manager.Exclusive);
  ignore (Lock_manager.acquire lm ~tid:2 ~key:"b" ~mode:Lock_manager.Exclusive);
  ignore (Lock_manager.acquire lm ~tid:1 ~key:"b" ~mode:Lock_manager.Exclusive);
  let cycle () = Lock_manager.find_cycle (Lock_manager.waits_for_edges lm) in
  check Alcotest.bool "no cycle yet" true (cycle () = None);
  ignore (Lock_manager.acquire lm ~tid:2 ~key:"a" ~mode:Lock_manager.Exclusive);
  (match cycle () with
  | None -> Alcotest.fail "deadlock not detected"
  | Some cycle ->
      check Alcotest.(list int) "cycle members" [ 1; 2 ]
        (List.sort Int.compare cycle));
  (* Killing one releases the other. *)
  let granted = Lock_manager.release_all lm ~tid:2 in
  check Alcotest.bool "t1 unblocked on b" true
    (List.exists (fun g -> g.Lock_manager.tid = 1 && g.key = "b") granted);
  check Alcotest.bool "cycle gone" true (cycle () = None)

let test_released_keys_dropped () =
  let lm = Lock_manager.create () in
  let x = Lock_manager.Exclusive in
  ignore (Lock_manager.acquire lm ~tid:1 ~key:"a" ~mode:x);
  ignore (Lock_manager.acquire lm ~tid:1 ~key:"b" ~mode:x);
  ignore (Lock_manager.acquire lm ~tid:2 ~key:"b" ~mode:x);
  ignore (Lock_manager.acquire lm ~tid:3 ~key:"c" ~mode:x);
  check Alcotest.int "three keys" 3 (Lock_manager.live_keys lm);
  (* "a" empties; "b" passes to the waiting t2 and stays. *)
  ignore (Lock_manager.release_all lm ~tid:1);
  check Alcotest.int "a dropped, b kept" 2 (Lock_manager.live_keys lm);
  check Alcotest.bool "a granted at once" true
    (Lock_manager.acquire lm ~tid:4 ~key:"a" ~mode:x = `Granted);
  ignore (Lock_manager.release_all lm ~tid:4);
  ignore (Lock_manager.release_all lm ~tid:2);
  check Alcotest.int "only c left" 1 (Lock_manager.live_keys lm);
  ignore (Lock_manager.purge lm ~keep:(fun tid -> tid <> 3));
  check Alcotest.int "purge empties the table" 0 (Lock_manager.live_keys lm);
  check Alcotest.bool "c granted at once" true
    (Lock_manager.acquire lm ~tid:5 ~key:"c" ~mode:x = `Granted)

let test_read_behind_own_write () =
  (* t2 queues a write and then a read of the same key behind t1; once
     t1 leaves, t2 holds X, and its queued S must not wait on itself. *)
  let lm = Lock_manager.create () in
  ignore (Lock_manager.acquire lm ~tid:1 ~key:"k" ~mode:Lock_manager.Exclusive);
  ignore (Lock_manager.acquire lm ~tid:2 ~key:"k" ~mode:Lock_manager.Exclusive);
  ignore (Lock_manager.acquire lm ~tid:2 ~key:"k" ~mode:Lock_manager.Shared);
  let granted = Lock_manager.release_all lm ~tid:1 in
  check Alcotest.int "both of t2's requests granted" 2 (List.length granted);
  check Alcotest.int "queue empty" 0 (List.length (Lock_manager.queued lm ~key:"k"));
  check Alcotest.bool "t2 holds X" true
    (Lock_manager.holds lm ~tid:2 ~key:"k" = Some Lock_manager.Exclusive)

(* ------------------------------------------------------------------ *)
(* Transaction manager: failure-free                                   *)
(* ------------------------------------------------------------------ *)

let protocols_under_test : (string * Site.packed) list =
  [
    ("2pc", (module Two_phase));
    ("3pc", (module Three_phase));
    ("quorum", (module Quorum));
    ("termination", (module Termination.Static));
    ("termination-transient", (module Termination.Transient));
  ]

let bank ~pairs ~seed =
  Workload.bank_transfers ~n:3 ~pairs ~balance:1000 ~amount:70
    ~spacing:(Vtime.of_int 8000) ~seed

let test_bank_conserves_failure_free () =
  List.iter
    (fun (name, protocol) ->
      let w = bank ~pairs:8 ~seed:11L in
      let config =
        { (Tm.default_config ~protocol ()) with Tm.initial = w.Workload.initial }
      in
      let report = Tm.run config w.Workload.txns in
      check Alcotest.int
        (name ^ ": all committed")
        8
        (Tm.count_status report Tm.Txn_committed);
      check Alcotest.int
        (name ^ ": total conserved")
        (Workload.expected_total w ~prefix:"acct:")
        (Txn_core.money ~prefix:"acct:" report.Tm.stores))
    protocols_under_test

let test_tm_no_vote_aborts_cleanly () =
  let w = bank ~pairs:3 ~seed:5L in
  let txns =
    List.map
      (fun (t : Tm.txn_spec) ->
        if t.tid = 2 then { t with Tm.vote_no = [ site 2 ] } else t)
      w.Workload.txns
  in
  let config =
    {
      (Tm.default_config ~protocol:(module Termination.Static) ()) with
      Tm.initial = w.Workload.initial;
    }
  in
  let report = Tm.run config txns in
  check Alcotest.int "two committed" 2 (Tm.count_status report Tm.Txn_committed);
  check Alcotest.int "one aborted" 1 (Tm.count_status report Tm.Txn_aborted);
  (* The aborted transfer moved nothing; the committed ones conserve. *)
  check Alcotest.int "total conserved"
    (Workload.expected_total w ~prefix:"acct:")
    (Txn_core.money ~prefix:"acct:" report.Tm.stores)

let test_tm_duplicate_tids_rejected () =
  let config = Tm.default_config ~protocol:(module Two_phase) () in
  let t1 = Tm.txn ~tid:1 ~start_at:Vtime.zero [] in
  let raised =
    try
      ignore (Tm.run config [ t1; t1 ]);
      false
    with Invalid_argument _ -> true
  in
  check Alcotest.bool "duplicates rejected" true raised

let test_tm_stores_durable () =
  (* After a committed run, every touched store's WAL ends each
     transaction, and recovery finds nothing to do. *)
  let w = bank ~pairs:4 ~seed:3L in
  let config =
    {
      (Tm.default_config ~protocol:(module Termination.Static) ()) with
      Tm.initial = w.Workload.initial;
    }
  in
  let report = Tm.run config w.Workload.txns in
  Array.iter
    (fun store ->
      let r = Durable_site.recover store in
      check Alcotest.(list int) "nothing redone" [] r.redone;
      check Alcotest.(list int) "nothing in doubt" [] r.in_doubt)
    report.Tm.stores

let test_tm_crashed_site_writes_nothing () =
  (* Site3 dies at 7T, in the middle of t1's commit.  Whatever its
     ghost instances and watchdogs do afterwards, and whichever later
     transactions start, its WAL must stay as the crash left it. *)
  let w =
    Workload.bank_transfers ~n:3 ~pairs:6 ~balance:1000 ~amount:70
      ~spacing:(Vtime.of_int 6000) ~seed:1L
  in
  let config =
    {
      (Tm.default_config ~protocol:(module Termination.Static) ()) with
      Tm.initial = w.Workload.initial;
      crashes = [ (site 3, Vtime.of_int 7000) ];
    }
  in
  let wal_of_site3 horizon =
    let report = Tm.run { config with Tm.horizon } w.Workload.txns in
    Durable_site.wal_records report.Tm.stores.(2)
  in
  let record = Alcotest.testable Wal.pp ( = ) in
  check
    Alcotest.(list record)
    "no record after the crash"
    (wal_of_site3 (Vtime.of_int 7000))
    (wal_of_site3 config.Tm.horizon)

let test_tm_crash_schedule_checked () =
  (* Site 5 of 3, crashing after the horizon: rejected before the run,
     not when (or if) the crash fires. *)
  let config =
    {
      (Tm.default_config ~protocol:(module Two_phase) ()) with
      Tm.crashes = [ (site 5, Vtime.of_int 1_000_000) ];
    }
  in
  let raised =
    try
      ignore (Tm.run config [ Tm.txn ~tid:1 ~start_at:Vtime.zero [] ]);
      false
    with Invalid_argument _ -> true
  in
  check Alcotest.bool "out-of-range crash site rejected" true raised

(* ------------------------------------------------------------------ *)
(* Hot-spot contention: blocking holds locks, termination releases     *)
(* ------------------------------------------------------------------ *)

let hot_partition =
  (* Cut site3 off during the first transaction's commit exchange. *)
  Partition.make ~group2:(Site_id.set_of_ints [ 3 ]) ~starts_at:(Vtime.of_int 10200)
    ~n:3 ()

let hot_config ~protocol =
  {
    (Tm.default_config ~protocol ()) with
    Tm.partition = hot_partition;
    delay = Delay.full ~t_max:t_unit;
  }

let test_2pc_blocked_txn_pins_lock_queue () =
  let w = Workload.hot_spot ~n:3 ~txns:4 ~spacing:(Vtime.of_int 10000) in
  let config = { (hot_config ~protocol:(module Two_phase)) with Tm.initial = w.Workload.initial } in
  let report = Tm.run config w.Workload.txns in
  (* t1 blocks; t2..t4 never get the hot lock. *)
  check Alcotest.int "one blocked" 1 (Tm.count_status report Tm.Txn_blocked);
  check Alcotest.int "rest starve" 3
    (Tm.count_status report Tm.Txn_waiting_locks)

let test_termination_blocked_txn_releases () =
  let w = Workload.hot_spot ~n:3 ~txns:4 ~spacing:(Vtime.of_int 10000) in
  let config =
    {
      (hot_config ~protocol:(module Termination.Static)) with
      Tm.initial = w.Workload.initial;
    }
  in
  let report = Tm.run config w.Workload.txns in
  check Alcotest.int "nothing blocked" 0 (Tm.count_status report Tm.Txn_blocked);
  check Alcotest.int "nothing starved" 0
    (Tm.count_status report Tm.Txn_waiting_locks);
  check Alcotest.int "all decided" 4
    (Tm.count_status report Tm.Txn_committed
    + Tm.count_status report Tm.Txn_aborted)

let test_lock_wait_shorter_under_termination () =
  let w = Workload.hot_spot ~n:3 ~txns:3 ~spacing:(Vtime.of_int 2000) in
  let run protocol =
    let config =
      { (Tm.default_config ~protocol ()) with Tm.initial = w.Workload.initial }
    in
    Tm.run config w.Workload.txns
  in
  let report = run (module Termination.Static : Site.S) in
  (* Failure-free, back-to-back conflicting transactions queue but all
     commit; lock waits are finite and recorded. *)
  check Alcotest.int "all commit" 3 (Tm.count_status report Tm.Txn_committed);
  List.iter
    (fun (r : Tm.txn_report) ->
      check Alcotest.bool "has lock wait" true (r.lock_wait <> None))
    report.Tm.txns

(* ------------------------------------------------------------------ *)
(* Atomicity at the storage level                                      *)
(* ------------------------------------------------------------------ *)

let test_ext2pc_partition_breaks_conservation () =
  (* Sweep partition instants over one transfer; the Section 3 ext2pc
     violation tears the transfer apart and the money total drifts.
     The termination protocol conserves at every instant. *)
  let transfer site_a site_b =
    [
      Tm.txn ~tid:1 ~start_at:Vtime.zero
        [
          (site_a, [ { Wal.key = "acct:a"; value = "930" } ]);
          (site_b, [ { Wal.key = "acct:b"; value = "1070" } ]);
        ];
    ]
  in
  let initial =
    [
      (site 2, [ ("acct:a", "1000") ]);
      (site 3, [ ("acct:b", "1000") ]);
    ]
  in
  let run protocol at =
    let partition =
      Partition.make ~group2:(Site_id.set_of_ints [ 3 ])
        ~starts_at:(Vtime.of_int at) ~n:3 ()
    in
    let config =
      {
        (Tm.default_config ~protocol ()) with
        Tm.initial;
        partition;
        delay = Delay.full ~t_max:t_unit;
      }
    in
    Tm.run config (transfer (site 2) (site 3))
  in
  let instants = List.init 24 (fun i -> 100 + (250 * i)) in
  let torn =
    List.exists
      (fun at ->
        Txn_core.money ~prefix:"acct:" (run (module Ext_two_phase) at).Tm.stores <> 2000)
      instants
  in
  check Alcotest.bool "ext2pc tears a transfer at some instant" true torn;
  List.iter
    (fun at ->
      check Alcotest.int
        (Printf.sprintf "termination conserves at %d" at)
        2000
        (Txn_core.money ~prefix:"acct:" (run (module Termination.Static) at).Tm.stores))
    instants

(* ------------------------------------------------------------------ *)
(* Property: conservation under random partitions                      *)
(* ------------------------------------------------------------------ *)

let conservation_property =
  QCheck.Test.make ~count:60
    ~name:"bank total conserved under termination protocol at any cut instant"
    QCheck.(pair (int_range 0 20000) (int_range 1 1000))
    (fun (at, seed) ->
      let w =
        Workload.bank_transfers ~n:4 ~pairs:4 ~balance:500 ~amount:33
          ~spacing:(Vtime.of_int 6000) ~seed:(Int64.of_int seed)
      in
      let partition =
        Partition.make
          ~group2:(Site_id.set_of_ints [ 3; 4 ])
          ~starts_at:(Vtime.of_int at) ~n:4 ()
      in
      let config =
        {
          (Tm.default_config ~protocol:(module Termination.Static) ~n:4 ()) with
          Tm.initial = w.Workload.initial;
          partition;
          seed = Int64.of_int (seed * 17);
        }
      in
      let report = Tm.run config w.Workload.txns in
      Txn_core.money ~prefix:"acct:" report.Tm.stores
      = Workload.expected_total w ~prefix:"acct:")

let test_readers_and_writers () =
  (* t1 writes k; t2 reads k (queued behind t1); t3 reads another key
     concurrently.  After t1 commits, t2 proceeds. *)
  let initial = [ (site 2, [ ("k", "0"); ("other", "0") ]) ] in
  let txns =
    [
      Tm.txn ~tid:1 ~start_at:Vtime.zero
        [ (site 2, [ { Wal.key = "k"; value = "1" } ]) ];
      Tm.txn ~tid:2 ~start_at:(Vtime.of_int 100)
        ~reads:[ (site 2, [ "k" ]) ]
        [];
      Tm.txn ~tid:3 ~start_at:(Vtime.of_int 100)
        ~reads:[ (site 2, [ "other" ]) ]
        [];
    ]
  in
  let config =
    {
      (Tm.default_config ~protocol:(module Termination.Static) ()) with
      Tm.initial;
      delay = Delay.full ~t_max:t_unit;
    }
  in
  let report = Tm.run config txns in
  check Alcotest.int "all committed" 3 (Tm.count_status report Tm.Txn_committed);
  let find tid = List.find (fun (r : Tm.txn_report) -> r.spec.tid = tid) report.Tm.txns in
  let wait tid = Option.value ((find tid).lock_wait) ~default:(-1) in
  check Alcotest.bool "reader of k queued behind the writer" true (wait 2 > 0);
  check Alcotest.int "unrelated reader ran immediately" 0 (wait 3)

let test_concurrent_readers_share () =
  (* Two pure readers of the same key run concurrently. *)
  let initial = [ (site 2, [ ("k", "0") ]) ] in
  let txns =
    [
      Tm.txn ~tid:1 ~start_at:Vtime.zero ~reads:[ (site 2, [ "k" ]) ] [];
      Tm.txn ~tid:2 ~start_at:(Vtime.of_int 10) ~reads:[ (site 2, [ "k" ]) ] [];
    ]
  in
  let config =
    { (Tm.default_config ~protocol:(module Termination.Static) ()) with Tm.initial }
  in
  let report = Tm.run config txns in
  check Alcotest.int "both committed" 2 (Tm.count_status report Tm.Txn_committed);
  List.iter
    (fun (r : Tm.txn_report) ->
      check Alcotest.int
        (Printf.sprintf "t%d no lock wait" r.spec.tid)
        0
        (Option.value r.lock_wait ~default:(-1)))
    report.Tm.txns

let test_read_and_write_same_key () =
  (* t2 writes and reads the key t1 writes: once t1 commits, t2 gets
     both locks and commits too. *)
  let initial = [ (site 2, [ ("k", "0") ]) ] in
  let txns =
    [
      Tm.txn ~tid:1 ~start_at:Vtime.zero [ (site 2, [ { Wal.key = "k"; value = "1" } ]) ];
      Tm.txn ~tid:2 ~start_at:(Vtime.of_int 100)
        ~reads:[ (site 2, [ "k" ]) ]
        [ (site 2, [ { Wal.key = "k"; value = "2" } ]) ];
    ]
  in
  let config =
    { (Tm.default_config ~protocol:(module Termination.Static) ()) with Tm.initial }
  in
  let report = Tm.run config txns in
  check Alcotest.int "both committed" 2 (Tm.count_status report Tm.Txn_committed);
  check Alcotest.(option string) "t2's write applied" (Some "2")
    (Durable_site.read report.Tm.stores.(1) "k")

(* ------------------------------------------------------------------ *)
(* Inventory workload: cross-site owner/receipt invariant              *)
(* ------------------------------------------------------------------ *)

let inventory_run ?(partition = Partition.none) protocol =
  let w =
    Workload.inventory ~n:3 ~items:6 ~orders:10 ~contention:0.4
      ~spacing:(Vtime.of_int 6000) ~seed:99L
  in
  let config =
    {
      (Tm.default_config ~protocol ()) with
      Tm.initial = w.Workload.initial;
      partition;
      delay = Delay.full ~t_max:t_unit;
    }
  in
  Tm.run config w.Workload.txns

let test_inventory_consistent_failure_free () =
  List.iter
    (fun (name, protocol) ->
      let report = inventory_run protocol in
      check Alcotest.int (name ^ ": all orders decided") 10
        (Tm.count_status report Tm.Txn_committed
        + Tm.count_status report Tm.Txn_aborted);
      match Workload.inventory_consistent report with
      | Ok () -> ()
      | Error e -> Alcotest.fail (name ^ ": " ^ e))
    [
      ("2pc", (module Two_phase : Site.S));
      ("termination", (module Termination.Static));
    ]

let test_inventory_termination_survives_partition () =
  let partition =
    Partition.make
      ~group2:(Site_id.set_of_ints [ 3 ])
      ~starts_at:(Vtime.of_int 20200) ~n:3 ()
  in
  let report = inventory_run ~partition (module Termination.Static) in
  (match Workload.inventory_consistent report with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  check Alcotest.int "nothing blocked" 0 (Tm.count_status report Tm.Txn_blocked)

let test_inventory_ext2pc_can_tear () =
  (* Sweep partition instants; somewhere the ext2pc violation tears an
     order so owner and receipt disagree. *)
  let torn =
    List.exists
      (fun at ->
        let partition =
          Partition.make
            ~group2:(Site_id.set_of_ints [ 3 ])
            ~starts_at:(Vtime.of_int at) ~n:3 ()
        in
        let report = inventory_run ~partition (module Ext_two_phase) in
        Workload.inventory_consistent report <> Ok ())
      (List.init 40 (fun i -> 6000 + (500 * i)))
  in
  check Alcotest.bool "ext2pc tears an order at some instant" true torn

(* ------------------------------------------------------------------ *)
(* The recovery rule: in-doubt transactions after a restart            *)
(* ------------------------------------------------------------------ *)

let updates = [ { Wal.key = "x"; value = "1" } ]

(* Build a 3-site world where site2 crashed while prepared for t1, and
   the other sites' WALs differ per scenario. *)
let in_doubt_world ~peer1 ~peer3 =
  let stores = Array.init 3 (fun _ -> Durable_site.create ()) in
  let prep store =
    Durable_site.begin_transaction store ~tid:1;
    Durable_site.stage store ~tid:1 updates;
    Durable_site.prepare store ~tid:1
  in
  prep stores.(1);
  Durable_site.crash stores.(1);
  let shape store = function
    | `Committed ->
        Durable_site.begin_transaction store ~tid:1;
        Durable_site.stage store ~tid:1 updates;
        Durable_site.commit store ~tid:1 ()
    | `Aborted ->
        Durable_site.begin_transaction store ~tid:1;
        Durable_site.abort store ~tid:1
    | `Prepared -> prep store
    | `Active -> Durable_site.begin_transaction store ~tid:1
    | `Unknown -> ()
  in
  shape stores.(0) peer1;
  shape stores.(2) peer3;
  stores

let decision_t : Types.decision option Alcotest.testable =
  Alcotest.option (Alcotest.testable Types.pp_decision Types.equal_decision)

let peer_decision stores = Txn_core.peer_decision stores ~site:(site 2) ~tid:1

let test_resolver_commit_found () =
  let stores = in_doubt_world ~peer1:`Committed ~peer3:`Prepared in
  check decision_t "peer committed -> commit" (Some Types.Commit)
    (peer_decision stores)

let test_resolver_abort_found () =
  let stores = in_doubt_world ~peer1:`Aborted ~peer3:`Prepared in
  check decision_t "peer aborted -> abort" (Some Types.Abort)
    (peer_decision stores)

let test_resolver_all_prepared_in_doubt () =
  let stores = in_doubt_world ~peer1:`Prepared ~peer3:`Prepared in
  check decision_t "all prepared -> in doubt" None (peer_decision stores)

let test_resolver_unprepared_peer_in_doubt () =
  (* site3 never began, yet the termination protocol may still commit
     over the others: no decision is logged, so site2 stays in doubt. *)
  let stores = in_doubt_world ~peer1:`Prepared ~peer3:`Unknown in
  check decision_t "unprepared peer -> still in doubt" None
    (peer_decision stores)

let test_resolver_resolve_all_and_apply () =
  let stores = in_doubt_world ~peer1:`Committed ~peer3:`Prepared in
  let report = Durable_site.recover stores.(1) in
  check Alcotest.(list int) "t1 in doubt" [ 1 ] report.in_doubt;
  (match peer_decision stores with
  | Some decision -> Txn_core.adopt stores.(1) ~tid:1 ~writes:[] decision
  | None -> Alcotest.fail "expected a peer decision");
  check Alcotest.(option string) "updates applied" (Some "1")
    (Durable_site.read stores.(1) "x");
  check Alcotest.bool "ended" true (Durable_site.status stores.(1) ~tid:1 = `Ended)

let test_adopt_follows_the_log () =
  (* Active: the vote was never forced, so a commit re-stages; Unknown:
     the site never heard of the transaction, so a commit begins it and
     an abort writes nothing. *)
  let d = Durable_site.create () in
  Durable_site.begin_transaction d ~tid:1;
  Txn_core.adopt d ~tid:1 ~writes:updates Types.Commit;
  check Alcotest.(option string) "active commit re-staged" (Some "1")
    (Durable_site.read d "x");
  Txn_core.adopt d ~tid:2 ~writes:[ { Wal.key = "y"; value = "2" } ] Types.Commit;
  check Alcotest.(option string) "unknown commit begun" (Some "2")
    (Durable_site.read d "y");
  let before = List.length (Durable_site.wal_records d) in
  Txn_core.adopt d ~tid:3 ~writes:updates Types.Abort;
  check Alcotest.int "unknown abort logs nothing" before
    (List.length (Durable_site.wal_records d));
  Txn_core.adopt d ~tid:1 ~writes:[] Types.Abort;
  check Alcotest.bool "decided stays decided" true
    (Durable_site.status d ~tid:1 = `Ended)

let test_crash_recover_resolve_end_to_end () =
  (* One transfer; site3 dies after acknowledging its prepare (ack in
     flight), so the survivors commit while site3's store is left
     prepared-but-undecided.  Recovery reports it in doubt; the resolver
     finds the commit at a peer; applying it restores consistency and
     conserves the money. *)
  let w =
    {
      Workload.initial =
        [ (site 2, [ ("acct:a", "1000") ]); (site 3, [ ("acct:b", "1000") ]) ];
      txns =
        [
          Tm.txn ~tid:1 ~start_at:Vtime.zero
            [
              (site 2, [ { Wal.key = "acct:a"; value = "930" } ]);
              (site 3, [ { Wal.key = "acct:b"; value = "1070" } ]);
            ];
        ];
    }
  in
  let config =
    {
      (Tm.default_config ~protocol:(module Termination.Static) ()) with
      Tm.initial = w.Workload.initial;
      delay = Delay.full ~t_max:t_unit;
      crashes = [ (site 3, Vtime.of_int 3500) ];
    }
  in
  let report = Tm.run config w.Workload.txns in
  check Alcotest.(list int) "site3 crashed" [ 3 ]
    (List.map Site_id.to_int report.Tm.crashed);
  check Alcotest.bool "survivors committed" true
    (Tm.count_status report Tm.Txn_committed = 1);
  check Alcotest.bool "latency over the survivors" true
    ((List.hd report.Tm.txns).latency <> None);
  (* site3's store: prepared, no decision. *)
  let store3 = report.Tm.stores.(2) in
  check Alcotest.bool "prepared persisted" true
    (Durable_site.status store3 ~tid:1 = `Prepared);
  check Alcotest.(option string) "update not applied yet" (Some "1000")
    (Durable_site.read store3 "acct:b");
  (* Replay, then the recovery rule against the surviving peers. *)
  let replay = Durable_site.recover store3 in
  check Alcotest.(list int) "t1 in doubt" [ 1 ] replay.in_doubt;
  (match Txn_core.peer_decision report.Tm.stores ~site:(site 3) ~tid:1 with
  | Some Types.Commit ->
      Txn_core.adopt store3 ~tid:1
        ~writes:[ { Wal.key = "acct:b"; value = "1070" } ]
        Types.Commit
  | Some Types.Abort | None -> Alcotest.fail "expected t1 resolved to commit");
  check Alcotest.int "money conserved after resolution" 2000
    (Txn_core.money ~prefix:"acct:" report.Tm.stores)

let conservation_any_atomic_protocol =
  QCheck.Test.make ~count:50
    ~name:"every atomic protocol conserves the bank total under partitions"
    QCheck.(triple (int_range 0 30000) (int_range 0 3) small_nat)
    (fun (at, proto_ix, seed) ->
      let protocol : Site.packed =
        match proto_ix with
        | 0 -> (module Two_phase)
        | 1 -> (module Three_phase)
        | 2 -> (module Quorum)
        | _ -> (module Termination.Static)
      in
      let w =
        Workload.bank_transfers ~n:3 ~pairs:5 ~balance:400 ~amount:21
          ~spacing:(Vtime.of_int 7000)
          ~seed:(Int64.of_int (seed + 2))
      in
      let partition =
        Partition.make
          ~group2:(Site_id.set_of_ints [ 3 ])
          ~starts_at:(Vtime.of_int at) ~n:3 ()
      in
      let config =
        {
          (Tm.default_config ~protocol ()) with
          Tm.initial = w.Workload.initial;
          partition;
          seed = Int64.of_int ((seed * 13) + 1);
        }
      in
      let report = Tm.run config w.Workload.txns in
      (* A *blocked* transaction legitimately leaves a partial snapshot:
         the cut-off site has not applied its half yet (that pending
         state is blocking's cost, not an atomicity violation).  The
         conservation claim is about quiescent runs. *)
      if
        Tm.count_status report Tm.Txn_blocked > 0
        || Tm.count_status report Tm.Txn_waiting_locks > 0
      then Tm.count_status report Tm.Txn_torn = 0
      else
        Txn_core.money ~prefix:"acct:" report.Tm.stores
        = Workload.expected_total w ~prefix:"acct:")

let test_tm_multi_partition_quorum () =
  (* The TM accepts multiple partitions too; quorum stays atomic (and
     conserves) even when the sites split three ways. *)
  let w =
    Workload.bank_transfers ~n:4 ~pairs:4 ~balance:500 ~amount:11
      ~spacing:(Vtime.of_int 7000) ~seed:4L
  in
  let partition =
    Partition.make_multiple
      ~groups:
        [
          Site_id.set_of_ints [ 1; 2 ];
          Site_id.set_of_ints [ 3 ];
          Site_id.set_of_ints [ 4 ];
        ]
      ~starts_at:(Vtime.of_int 9000) ~n:4 ()
  in
  let config =
    {
      (Tm.default_config ~protocol:(module Quorum) ~n:4 ()) with
      Tm.initial = w.Workload.initial;
      partition;
    }
  in
  let report = Tm.run config w.Workload.txns in
  check Alcotest.int "no torn transfers" 0 (Tm.count_status report Tm.Txn_torn);
  (* Blocked transfers leave pending halves; the conserved-total claim
     only applies when the run quiesced. *)
  if Tm.count_status report Tm.Txn_blocked = 0 then
    check Alcotest.int "money conserved"
      (Workload.expected_total w ~prefix:"acct:")
      (Txn_core.money ~prefix:"acct:" report.Tm.stores)

(* ------------------------------------------------------------------ *)
(* uniform_mix smoke: queueing resolves                                *)
(* ------------------------------------------------------------------ *)

let test_uniform_mix_completes () =
  let w =
    Workload.uniform_mix ~n:3 ~txns:10 ~keys_per_txn:3 ~key_space:6
      ~spacing:(Vtime.of_int 1500) ~seed:21L
  in
  let config =
    {
      (Tm.default_config ~protocol:(module Termination.Static) ()) with
      Tm.initial = w.Workload.initial;
    }
  in
  let report = Tm.run config w.Workload.txns in
  check Alcotest.int "all decided" 10
    (Tm.count_status report Tm.Txn_committed
    + Tm.count_status report Tm.Txn_aborted
    + Tm.count_status report Tm.Txn_deadlock_victim);
  (* Conservative (all-at-start) locking cannot deadlock. *)
  check Alcotest.int "no deadlocks" 0 report.Tm.deadlocks_resolved

let () =
  Alcotest.run "commit_db"
    [
      ( "lock_manager",
        [
          Alcotest.test_case "shared compatible" `Quick
            test_shared_locks_compatible;
          Alcotest.test_case "exclusive conflicts" `Quick
            test_exclusive_conflicts;
          Alcotest.test_case "FIFO grants" `Quick test_fifo_grant_on_release;
          Alcotest.test_case "shared batch grant" `Quick test_shared_batch_grant;
          Alcotest.test_case "reentrant and upgrade" `Quick
            test_reentrant_and_upgrade;
          Alcotest.test_case "upgrade waits for readers" `Quick
            test_upgrade_waits_with_other_readers;
          Alcotest.test_case "waits-for cycle detection" `Quick
            test_waits_for_and_cycle;
          Alcotest.test_case "released keys are dropped" `Quick
            test_released_keys_dropped;
          Alcotest.test_case "read behind own write" `Quick
            test_read_behind_own_write;
        ] );
      ( "tm",
        [
          Alcotest.test_case "bank conserves (all protocols)" `Slow
            test_bank_conserves_failure_free;
          Alcotest.test_case "no-vote aborts cleanly" `Quick
            test_tm_no_vote_aborts_cleanly;
          Alcotest.test_case "duplicate tids rejected" `Quick
            test_tm_duplicate_tids_rejected;
          Alcotest.test_case "stores durable after run" `Quick
            test_tm_stores_durable;
          Alcotest.test_case "crashed site writes nothing" `Quick
            test_tm_crashed_site_writes_nothing;
          Alcotest.test_case "crash schedule checked up front" `Quick
            test_tm_crash_schedule_checked;
        ] );
      ( "contention",
        [
          Alcotest.test_case "2pc pins the lock queue" `Quick
            test_2pc_blocked_txn_pins_lock_queue;
          Alcotest.test_case "termination releases the queue" `Quick
            test_termination_blocked_txn_releases;
          Alcotest.test_case "lock waits recorded" `Quick
            test_lock_wait_shorter_under_termination;
        ] );
      ( "atomicity",
        [
          Alcotest.test_case "ext2pc tears, termination conserves" `Slow
            test_ext2pc_partition_breaks_conservation;
          QCheck_alcotest.to_alcotest conservation_property;
          QCheck_alcotest.to_alcotest conservation_any_atomic_protocol;
          Alcotest.test_case "multi-partition quorum conserves" `Quick
            test_tm_multi_partition_quorum;
        ] );
      ( "inventory",
        [
          Alcotest.test_case "consistent failure-free" `Quick
            test_inventory_consistent_failure_free;
          Alcotest.test_case "termination survives a partition" `Quick
            test_inventory_termination_survives_partition;
          Alcotest.test_case "ext2pc can tear an order" `Slow
            test_inventory_ext2pc_can_tear;
        ] );
      ( "reads",
        [
          Alcotest.test_case "readers queue behind writers" `Quick
            test_readers_and_writers;
          Alcotest.test_case "concurrent readers share" `Quick
            test_concurrent_readers_share;
          Alcotest.test_case "read and write one key" `Quick
            test_read_and_write_same_key;
        ] );
      ( "resolver",
        [
          Alcotest.test_case "commit found at a peer" `Quick
            test_resolver_commit_found;
          Alcotest.test_case "abort found at a peer" `Quick
            test_resolver_abort_found;
          Alcotest.test_case "all prepared stays in doubt" `Quick
            test_resolver_all_prepared_in_doubt;
          Alcotest.test_case "unprepared peer stays in doubt" `Quick
            test_resolver_unprepared_peer_in_doubt;
          Alcotest.test_case "resolve_all and apply" `Quick
            test_resolver_resolve_all_and_apply;
          Alcotest.test_case "adopt follows the log" `Quick
            test_adopt_follows_the_log;
          Alcotest.test_case "crash -> recover -> resolve, end to end" `Quick
            test_crash_recover_resolve_end_to_end;
        ] );
      ( "workloads",
        [ Alcotest.test_case "uniform mix completes" `Quick test_uniform_mix_completes ] );
    ]
