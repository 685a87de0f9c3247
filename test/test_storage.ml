(* Tests for the single-site durability substrate (lib/storage):
   WAL encode/decode, the KV store, and the Section 2 crash-recovery
   scheme with idempotent redo. *)

let check = Alcotest.check

let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Wal                                                                 *)
(* ------------------------------------------------------------------ *)

let record_t : Wal.record Alcotest.testable = Alcotest.testable Wal.pp Wal.equal

let test_wal_roundtrip_basics () =
  let records =
    [
      Wal.Begin { tid = 1 };
      Wal.Prepared { tid = 42 };
      Wal.Abort_log { tid = 7 };
      Wal.End { tid = 3 };
      Wal.Commit_log { tid = 9; updates = [] };
      Wal.Commit_log
        {
          tid = 9;
          updates =
            [ { Wal.key = "a"; value = "1" }; { Wal.key = "b"; value = "2" } ];
        };
    ]
  in
  List.iter
    (fun r ->
      match Wal.decode (Wal.encode r) with
      | Ok r' -> check record_t "roundtrip" r r'
      | Error e -> Alcotest.fail e)
    records

let test_wal_escaping () =
  let nasty =
    Wal.Commit_log
      {
        tid = 5;
        updates =
          [
            { Wal.key = "k=ey;with nasty%chars"; value = "v\nwith = stuff;" };
            { Wal.key = ""; value = "" };
          ];
      }
  in
  let line = Wal.encode nasty in
  check Alcotest.bool "single line" true (not (String.contains line '\n'));
  match Wal.decode line with
  | Ok r -> check record_t "nasty roundtrip" nasty r
  | Error e -> Alcotest.fail e

let test_wal_decode_errors () =
  let bad = [ "nonsense"; "begin x"; "commit"; "prepared"; "commit 3 a" ] in
  List.iter
    (fun line ->
      match Wal.decode line with
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S should not decode" line)
      | Error _ -> ())
    bad

let wal_roundtrip_property =
  QCheck.Test.make ~name:"Wal encode/decode roundtrip (arbitrary updates)"
    QCheck.(
      pair (int_range 1 100000) (list (pair printable_string printable_string)))
    (fun (tid, kvs) ->
      let updates = List.map (fun (key, value) -> { Wal.key; value }) kvs in
      let r = Wal.Commit_log { tid; updates } in
      match Wal.decode (Wal.encode r) with
      | Ok r' -> Wal.equal r r'
      | Error _ -> false)

let test_wal_tid_of () =
  check Alcotest.int "tid" 4 (Wal.tid_of (Wal.Prepared { tid = 4 }));
  check Alcotest.int "tid" 8 (Wal.tid_of (Wal.Commit_log { tid = 8; updates = [] }))

(* ------------------------------------------------------------------ *)
(* Kv                                                                  *)
(* ------------------------------------------------------------------ *)

let test_kv_basics () =
  let kv = Kv.create () in
  check Alcotest.(option string) "missing" None (Kv.get kv "x");
  Kv.set kv ~key:"x" ~value:"1";
  Kv.set kv ~key:"y" ~value:"2";
  Kv.set kv ~key:"x" ~value:"3";
  check Alcotest.(option string) "overwritten" (Some "3") (Kv.get kv "x");
  check Alcotest.int "cardinal" 2 (Kv.cardinal kv);
  check Alcotest.int "applications" 3 (Kv.applications kv);
  Kv.remove kv "x";
  check Alcotest.(option string) "removed" None (Kv.get kv "x");
  check Alcotest.(list string) "keys sorted" [ "y" ] (Kv.keys kv)

let test_kv_snapshot_restore () =
  let kv = Kv.create () in
  Kv.set kv ~key:"b" ~value:"2";
  Kv.set kv ~key:"a" ~value:"1";
  let snap = Kv.snapshot kv in
  check Alcotest.(list (pair string string)) "sorted snapshot"
    [ ("a", "1"); ("b", "2") ]
    snap;
  let kv' = Kv.restore snap in
  check Alcotest.bool "equal contents" true (Kv.equal_contents kv kv')

let kv_set_idempotent =
  QCheck.Test.make ~name:"Kv absolute writes are idempotent"
    QCheck.(list (pair small_string small_string))
    (fun kvs ->
      let a = Kv.create () and b = Kv.create () in
      List.iter (fun (key, value) -> Kv.set a ~key ~value) kvs;
      List.iter (fun (key, value) -> Kv.set b ~key ~value) kvs;
      List.iter (fun (key, value) -> Kv.set b ~key ~value) kvs;
      (* applied twice *)
      Kv.equal_contents a b)

(* ------------------------------------------------------------------ *)
(* Durable_site: the Section 2 scheme                                  *)
(* ------------------------------------------------------------------ *)

let updates = [ { Wal.key = "a"; value = "1" }; { Wal.key = "b"; value = "2" } ]

let test_happy_path_commit () =
  let s = Durable_site.create () in
  Durable_site.begin_transaction s ~tid:1;
  check Alcotest.bool "active" true (Durable_site.status s ~tid:1 = `Active);
  Durable_site.stage s ~tid:1 updates;
  check Alcotest.(option string) "not yet visible" None (Durable_site.read s "a");
  Durable_site.commit s ~tid:1 ();
  check Alcotest.(option string) "a" (Some "1") (Durable_site.read s "a");
  check Alcotest.(option string) "b" (Some "2") (Durable_site.read s "b");
  check Alcotest.bool "ended" true (Durable_site.status s ~tid:1 = `Ended);
  (* WAL shape: begin, commit, end. *)
  match Durable_site.wal_records s with
  | [ Wal.Begin _; Wal.Commit_log _; Wal.End _ ] -> ()
  | other ->
      Alcotest.fail
        (Format.asprintf "unexpected WAL: %a"
           (Format.pp_print_list Wal.pp)
           other)

let test_abort_discards () =
  let s = Durable_site.create () in
  Durable_site.begin_transaction s ~tid:1;
  Durable_site.stage s ~tid:1 updates;
  Durable_site.abort s ~tid:1;
  check Alcotest.(option string) "nothing applied" None (Durable_site.read s "a");
  check Alcotest.bool "aborted" true (Durable_site.status s ~tid:1 = `Aborted)

let test_double_begin_rejected () =
  let s = Durable_site.create () in
  Durable_site.begin_transaction s ~tid:1;
  let raised =
    try
      Durable_site.begin_transaction s ~tid:1;
      false
    with Invalid_argument _ -> true
  in
  check Alcotest.bool "double begin raises" true raised

let test_commit_unknown_rejected () =
  let s = Durable_site.create () in
  let raised =
    try
      Durable_site.commit s ~tid:9 ();
      false
    with Invalid_argument _ -> true
  in
  check Alcotest.bool "unknown commit raises" true raised

let test_crash_before_commit_log_aborts () =
  (* Paper: "If failures occur at any time before the commit log is
     stored, then immediately upon recovery the site will abort." *)
  let s = Durable_site.create () in
  Durable_site.begin_transaction s ~tid:1;
  Durable_site.stage s ~tid:1 updates;
  Durable_site.crash s;
  let report = Durable_site.recover s in
  check Alcotest.(list int) "aborted on recovery" [ 1 ] report.aborted;
  check Alcotest.(list int) "nothing redone" [] report.redone;
  check Alcotest.(option string) "no effects" None (Durable_site.read s "a");
  check Alcotest.bool "aborted status" true
    (Durable_site.status s ~tid:1 = `Aborted)

let test_crash_mid_apply_redoes () =
  (* Paper: "If failures occur after the commit log is stored but
     before the updates are finished, all the updates will be applied
     again when the site recovers." *)
  let s = Durable_site.create () in
  Durable_site.begin_transaction s ~tid:1;
  Durable_site.stage s ~tid:1 updates;
  Durable_site.commit s ~crash_after:1 ~tid:1 ();
  (* Torn state: a applied, b not, no End. *)
  check Alcotest.(option string) "a applied" (Some "1") (Durable_site.read s "a");
  check Alcotest.(option string) "b missing" None (Durable_site.read s "b");
  check Alcotest.bool "committed, not ended" true
    (Durable_site.status s ~tid:1 = `Committed);
  let before = Kv.applications (Durable_site.database s) in
  let report = Durable_site.recover s in
  check Alcotest.(list int) "redone" [ 1 ] report.redone;
  check Alcotest.(option string) "b now applied" (Some "2")
    (Durable_site.read s "b");
  check Alcotest.bool "ended" true (Durable_site.status s ~tid:1 = `Ended);
  (* Idempotence at work: "a" was re-applied harmlessly. *)
  check Alcotest.int "both updates replayed" (before + 2)
    (Kv.applications (Durable_site.database s));
  (* A second recovery is a no-op. *)
  let report2 = Durable_site.recover s in
  check Alcotest.(list int) "nothing further" [] report2.redone

let test_prepared_in_doubt () =
  let s = Durable_site.create () in
  Durable_site.begin_transaction s ~tid:1;
  Durable_site.stage s ~tid:1 updates;
  Durable_site.prepare s ~tid:1;
  Durable_site.crash s;
  let report = Durable_site.recover s in
  check Alcotest.(list int) "in doubt" [ 1 ] report.in_doubt;
  check Alcotest.(list int) "not aborted" [] report.aborted;
  check Alcotest.bool "still prepared" true
    (Durable_site.status s ~tid:1 = `Prepared)

let test_crash_loses_staged_updates () =
  let s = Durable_site.create () in
  Durable_site.begin_transaction s ~tid:1;
  Durable_site.stage s ~tid:1 updates;
  Durable_site.crash s;
  check Alcotest.int "volatile staging gone" 0
    (List.length (Durable_site.staged s ~tid:1))

let test_multiple_transactions_recovery () =
  let s = Durable_site.create () in
  (* t1 commits cleanly; t2 commits and crashes mid-apply; t3 is
     prepared; t4 only began. *)
  Durable_site.begin_transaction s ~tid:1;
  Durable_site.stage s ~tid:1 [ { Wal.key = "one"; value = "1" } ];
  Durable_site.commit s ~tid:1 ();
  Durable_site.begin_transaction s ~tid:2;
  Durable_site.stage s ~tid:2
    [ { Wal.key = "two"; value = "2" }; { Wal.key = "two'"; value = "2" } ];
  Durable_site.begin_transaction s ~tid:3;
  Durable_site.stage s ~tid:3 [ { Wal.key = "three"; value = "3" } ];
  Durable_site.prepare s ~tid:3;
  Durable_site.begin_transaction s ~tid:4;
  Durable_site.commit s ~crash_after:0 ~tid:2 ();
  let report = Durable_site.recover s in
  check Alcotest.(list int) "redone t2" [ 2 ] report.redone;
  check Alcotest.(list int) "in doubt t3" [ 3 ] report.in_doubt;
  check Alcotest.(list int) "aborted t4" [ 4 ] report.aborted;
  check Alcotest.(option string) "t1 intact" (Some "1") (Durable_site.read s "one");
  check Alcotest.(option string) "t2 completed" (Some "2")
    (Durable_site.read s "two'")

let recovery_always_completes_committed =
  QCheck.Test.make ~count:200
    ~name:"recovery completes every committed transaction regardless of crash point"
    QCheck.(pair (int_range 0 5) (list (pair small_string printable_string)))
    (fun (crash_after, kvs) ->
      let kvs = List.filter (fun (k, _) -> k <> "") kvs in
      let updates = List.map (fun (key, value) -> { Wal.key; value }) kvs in
      let s = Durable_site.create () in
      Durable_site.begin_transaction s ~tid:1;
      Durable_site.stage s ~tid:1 updates;
      Durable_site.commit s ~crash_after ~tid:1 ();
      ignore (Durable_site.recover s);
      (* The database must now reflect every update. *)
      List.for_all
        (fun (u : Wal.update) -> Durable_site.read s u.key <> None)
        updates
      && Durable_site.status s ~tid:1 = `Ended)

(* Crash-point equivalence: committing with a crash injected after any
   prefix of the updates, then recovering, must land on exactly the
   database an uninterrupted commit produces. *)
let crash_point_equivalence =
  QCheck.Test.make ~count:200
    ~name:"commit ~crash_after:k + recover = uninterrupted commit, for every k"
    (* Bounded size: the property replays the commit once per prefix
       point, so an unbounded list makes the test quadratic in the
       update count without covering anything new. *)
    QCheck.(list_of_size Gen.(int_bound 12) (pair small_string printable_string))
    (fun kvs ->
      let kvs = List.filter (fun (k, _) -> k <> "") kvs in
      let updates = List.map (fun (key, value) -> { Wal.key; value }) kvs in
      let run crash_after =
        let s = Durable_site.create () in
        Durable_site.begin_transaction s ~tid:1;
        Durable_site.stage s ~tid:1 updates;
        Durable_site.prepare s ~tid:1;
        (match crash_after with
        | None -> Durable_site.commit s ~tid:1 ()
        | Some k ->
            Durable_site.commit s ~crash_after:k ~tid:1 ();
            ignore (Durable_site.recover s));
        Kv.snapshot (Durable_site.database s)
      in
      let reference = run None in
      List.init
        (List.length updates + 1)
        (fun k -> run (Some k) = reference)
      |> List.for_all Fun.id)

(* Recovery is a fixpoint after the first call: a second (and third)
   recover changes nothing — same database, same report, in-doubt
   transactions still in doubt. *)
let recover_idempotent =
  QCheck.Test.make ~count:200
    ~name:"recover twice = recover once (same db, same report)"
    QCheck.(pair (int_range 0 3) (int_bound 2))
    (fun (crash_after, shape) ->
      let s = Durable_site.create () in
      (* t1 commits with a mid-apply crash; t2 is in doubt; t3 varies. *)
      Durable_site.begin_transaction s ~tid:1;
      Durable_site.stage s ~tid:1
        [ { Wal.key = "a"; value = "1" }; { Wal.key = "b"; value = "2" } ];
      Durable_site.begin_transaction s ~tid:2;
      Durable_site.stage s ~tid:2 [ { Wal.key = "c"; value = "3" } ];
      Durable_site.prepare s ~tid:2;
      Durable_site.begin_transaction s ~tid:3;
      (match shape with
      | 0 -> ()
      | 1 -> Durable_site.abort s ~tid:3
      | _ -> Durable_site.commit s ~tid:3 ());
      Durable_site.commit s ~crash_after ~tid:1 ();
      let r1 = Durable_site.recover s in
      let db1 = Kv.snapshot (Durable_site.database s) in
      let r2 = Durable_site.recover s in
      let db2 = Kv.snapshot (Durable_site.database s) in
      let r3 = Durable_site.recover s in
      r1.Durable_site.in_doubt = [ 2 ]
      && r2.Durable_site.in_doubt = [ 2 ]
      && r2 = r3 && db1 = db2
      && r2.Durable_site.redone = [] && r2.Durable_site.aborted = [])

(* ------------------------------------------------------------------ *)
(* Model-based testing: random op sequences vs. a reference model      *)
(* ------------------------------------------------------------------ *)

type op = O_begin | O_stage | O_prepare | O_commit | O_abort | O_crash | O_recover

let op_gen =
  QCheck.Gen.oneofl
    [ O_begin; O_stage; O_prepare; O_commit; O_abort; O_crash; O_recover ]

(* The reference model tracks, per transaction: its WAL-visible status
   and whether its updates must be in the database at quiescence. *)
type model_status = M_none | M_active | M_prepared | M_committed | M_aborted

let durable_model_property =
  QCheck.Test.make ~count:300
    ~name:"Durable_site agrees with a reference model on random op sequences"
    QCheck.(make ~print:(fun l -> string_of_int (List.length l))
              Gen.(list_size (int_bound 40) (pair op_gen (int_bound 2))))
    (fun ops ->
      let store = Durable_site.create () in
      let statuses = Array.make 3 M_none in
      let staged = Array.make 3 false in
      let ok = ref true in
      let expect_invalid f =
        match f () with
        | () -> ok := false (* the store accepted an op the model forbids *)
        | exception Invalid_argument _ -> ()
      in
      List.iter
        (fun (op, i) ->
          let tid = i + 1 in
          match (op, statuses.(i)) with
          | O_begin, M_none ->
              Durable_site.begin_transaction store ~tid;
              statuses.(i) <- M_active
          | O_begin, _ ->
              expect_invalid (fun () -> Durable_site.begin_transaction store ~tid)
          | O_stage, (M_active | M_prepared) ->
              Durable_site.stage store ~tid
                [ { Wal.key = Printf.sprintf "k%d" tid; value = string_of_int tid } ];
              staged.(i) <- true
          | O_stage, _ ->
              expect_invalid (fun () -> Durable_site.stage store ~tid [])
          | O_prepare, M_active ->
              Durable_site.prepare store ~tid;
              statuses.(i) <- M_prepared
          | O_prepare, _ ->
              expect_invalid (fun () -> Durable_site.prepare store ~tid)
          | O_commit, (M_active | M_prepared) ->
              Durable_site.commit store ~tid ();
              statuses.(i) <- M_committed
          | O_commit, _ ->
              expect_invalid (fun () -> Durable_site.commit store ~tid ())
          | O_abort, (M_active | M_prepared) ->
              Durable_site.abort store ~tid;
              statuses.(i) <- M_aborted;
              staged.(i) <- false
          | O_abort, _ ->
              expect_invalid (fun () -> Durable_site.abort store ~tid)
          | O_crash, _ ->
              Durable_site.crash store;
              Array.iteri (fun j _ -> staged.(j) <- false) staged
          | O_recover, _ ->
              let report = Durable_site.recover store in
              (* recovery aborts actives, leaves prepared in doubt *)
              List.iter
                (fun tid -> statuses.(tid - 1) <- M_aborted)
                report.Durable_site.aborted;
              Array.iteri (fun j _ -> staged.(j) <- false) staged)
        ops;
      (* Final agreement: WAL status matches the model; committed
         transactions with staged updates reached the database. *)
      Array.iteri
        (fun i model ->
          let tid = i + 1 in
          let actual = Durable_site.status store ~tid in
          let agrees =
            match (model, actual) with
            | M_none, `Unknown
            | M_active, `Active
            | M_prepared, `Prepared
            | M_aborted, `Aborted
            | M_committed, (`Committed | `Ended) ->
                true
            | _, _ -> false
          in
          if not agrees then ok := false;
          if model = M_committed && staged.(i) then
            if Durable_site.read store (Printf.sprintf "k%d" tid) = None then
              ok := false)
        statuses;
      !ok)

(* ------------------------------------------------------------------ *)
(* One-pass recovery vs. the quadratic replay it replaced              *)
(* ------------------------------------------------------------------ *)

(* The replay [Durable_site.recover] used to run, restated over plain
   values: dedupe tids with [List.mem], read each tid's status off the
   WAL, and fold the whole WAL again for each redone or in-doubt tid.
   Returns the report, the WAL after recovery, the database snapshot and
   the staging of tids 1..4. *)
let reference_recover ~undecided records db_bindings =
  let status tid =
    List.fold_left
      (fun acc record ->
        match record with
        | Wal.Stage _ -> acc
        | record when Wal.tid_of record <> tid -> acc
        | Wal.Begin _ -> `Active
        | Wal.Prepared _ -> `Prepared
        | Wal.Commit_log _ -> `Committed
        | Wal.Abort_log _ -> `Aborted
        | Wal.End _ -> `Ended)
      `Unknown records
  in
  let tids =
    List.fold_left
      (fun acc record ->
        let tid = Wal.tid_of record in
        if List.mem tid acc then acc else tid :: acc)
      [] records
    |> List.rev
  in
  let db = Kv.restore db_bindings in
  let appended = ref [] and staged = ref [] in
  let redone = ref [] and in_doubt = ref [] and aborted = ref [] in
  List.iter
    (fun tid ->
      match status tid with
      | `Ended | `Aborted | `Unknown -> ()
      | `Committed ->
          let updates =
            List.fold_left
              (fun acc record ->
                match record with
                | Wal.Commit_log { tid = t'; updates } when t' = tid -> Some updates
                | _ -> acc)
              None records
          in
          List.iter
            (fun (u : Wal.update) -> Kv.set db ~key:u.key ~value:u.value)
            (Option.value updates ~default:[]);
          appended := Wal.End { tid } :: !appended;
          redone := tid :: !redone
      | `Prepared ->
          let updates =
            List.fold_left
              (fun acc record ->
                match record with
                | Wal.Stage { tid = t'; updates } when t' = tid -> Some updates
                | _ -> acc)
              None records
          in
          Option.iter (fun u -> staged := (tid, u) :: !staged) updates;
          in_doubt := tid :: !in_doubt
      | `Active ->
          if List.mem tid undecided then in_doubt := tid :: !in_doubt
          else begin
            appended := Wal.Abort_log { tid } :: !appended;
            aborted := tid :: !aborted
          end)
    tids;
  ( {
      Durable_site.redone = List.rev !redone;
      in_doubt = List.rev !in_doubt;
      aborted = List.rev !aborted;
    },
    records @ List.rev !appended,
    Kv.snapshot db,
    List.init 4 (fun i ->
        Option.value (List.assoc_opt (i + 1) !staged) ~default:[]) )

(* Arbitrary WALs over four tids and three keys: records in any order,
   with repeated Stage and Commit_log records per tid, so "the last one
   wins" is exercised. *)
let wal_gen =
  let open QCheck.Gen in
  let update =
    map2
      (fun key v -> { Wal.key; value = string_of_int v })
      (oneofl [ "a"; "b"; "c" ])
      (int_bound 9)
  in
  let updates = list_size (int_bound 3) update in
  let record =
    int_range 1 4 >>= fun tid ->
    frequency
      [
        (2, return (Wal.Begin { tid }));
        (3, map (fun updates -> Wal.Stage { tid; updates }) updates);
        (2, return (Wal.Prepared { tid }));
        (3, map (fun updates -> Wal.Commit_log { tid; updates }) updates);
        (1, return (Wal.Abort_log { tid }));
        (1, return (Wal.End { tid }));
      ]
  in
  triple
    (list_size (int_bound 40) record)
    (list_size (int_bound 3) (int_range 1 4))
    (list_size (int_bound 3) (pair (oneofl [ "a"; "b"; "c" ]) (return "0")))

let recover_matches_reference =
  QCheck.Test.make ~count:500
    ~name:"one-pass recover = quadratic reference (report, WAL, db, staging)"
    (QCheck.make
       ~print:(fun (wal, undecided, _) ->
         Format.asprintf "undecided=[%s]@.%a"
           (String.concat ";" (List.map string_of_int undecided))
           (Format.pp_print_list Wal.pp) wal)
       wal_gen)
    (fun (wal, undecided, db_bindings) ->
      let s = Durable_site.of_stable ~wal ~db:(Kv.restore db_bindings) in
      let report = Durable_site.recover ~undecided s in
      let actual =
        ( report,
          Durable_site.wal_records s,
          Kv.snapshot (Durable_site.database s),
          List.init 4 (fun i -> Durable_site.staged s ~tid:(i + 1)) )
      in
      actual = reference_recover ~undecided wal db_bindings)

(* ------------------------------------------------------------------ *)
(* Forgetting ended transactions                                       *)
(* ------------------------------------------------------------------ *)

type forget_op =
  | F_begin
  | F_stage
  | F_prepare
  | F_commit
  | F_commit_crash of int  (* crash after this many updates *)
  | F_abort
  | F_crash
  | F_recover
  | F_forget

let forget_op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, return F_begin);
        (3, return F_stage);
        (2, return F_prepare);
        (3, return F_commit);
        (1, map (fun k -> F_commit_crash k) (int_bound 2));
        (2, return F_abort);
        (1, return F_crash);
        (1, return F_recover);
        (4, return F_forget);
      ])

(* Two stores run one history over six tids, and one of them forgets
   the ended tids that [F_forget] names (a tid is left alone from then
   on, as a retired transaction is).  Forgetting must change no
   recovery and no status but the forgotten tids', and [wal_records]
   must be the other store's log without the forgotten tids' records;
   forgetting a tid that has not ended must change nothing. *)
let forget_keeps_recovery =
  QCheck.Test.make ~count:500
    ~name:"forgetting ended tids changes no recovery, status or other record"
    (QCheck.make
       ~print:(fun l -> string_of_int (List.length l))
       QCheck.Gen.(list_size (int_bound 60) (pair forget_op_gen (int_bound 5))))
    (fun history ->
      let kept = Durable_site.create () and forgetful = Durable_site.create () in
      let forgotten = Array.make 6 false in
      let statuses d = List.init 6 (fun i -> Durable_site.status d ~tid:(i + 1)) in
      let staging d = List.init 6 (fun i -> Durable_site.staged d ~tid:(i + 1)) in
      let agree () =
        List.for_all2
          (fun gone (a, b) -> gone || a = b)
          (Array.to_list forgotten)
          (List.combine (statuses kept) (statuses forgetful))
        && Durable_site.wal_records forgetful
           = List.filter
               (fun r -> not forgotten.(Wal.tid_of r - 1))
               (Durable_site.wal_records kept)
        && Kv.snapshot (Durable_site.database kept)
           = Kv.snapshot (Durable_site.database forgetful)
        && staging kept = staging forgetful
      in
      let both f =
        let run d = try Ok (f d) with Invalid_argument _ -> Error () in
        let a = run kept in
        a = run forgetful
      in
      let step (op, i) =
        let tid = i + 1 in
        let updates = [ { Wal.key = Printf.sprintf "k%d" (i mod 3); value = string_of_int tid } ] in
        match op with
        | _ when forgotten.(i) && op <> F_crash && op <> F_recover -> true
        | F_begin -> both (fun d -> Durable_site.begin_transaction d ~tid)
        | F_stage -> both (fun d -> Durable_site.stage d ~tid updates)
        | F_prepare -> both (fun d -> Durable_site.prepare d ~tid)
        | F_commit -> both (fun d -> Durable_site.commit d ~tid ())
        | F_commit_crash k ->
            both (fun d -> Durable_site.commit d ~crash_after:k ~tid ())
        | F_abort -> both (fun d -> Durable_site.abort d ~tid)
        | F_crash -> both Durable_site.crash
        | F_recover -> both (fun d -> Durable_site.recover d)
        | F_forget -> (
            match Durable_site.status forgetful ~tid with
            | `Ended | `Aborted ->
                Durable_site.forget forgetful ~tid;
                forgotten.(i) <- true;
                Durable_site.status forgetful ~tid = `Unknown
            | `Unknown | `Active | `Prepared | `Committed ->
                let before = (statuses forgetful, Durable_site.wal_records forgetful) in
                Durable_site.forget forgetful ~tid;
                before = (statuses forgetful, Durable_site.wal_records forgetful))
      in
      List.for_all (fun op -> step op && agree ()) history
      && both (fun d -> Durable_site.recover d)
      && agree ())

let () =
  Alcotest.run "commit_storage"
    [
      ( "wal",
        [
          Alcotest.test_case "roundtrip basics" `Quick test_wal_roundtrip_basics;
          Alcotest.test_case "escaping" `Quick test_wal_escaping;
          Alcotest.test_case "decode errors" `Quick test_wal_decode_errors;
          Alcotest.test_case "tid_of" `Quick test_wal_tid_of;
          qtest wal_roundtrip_property;
        ] );
      ( "kv",
        [
          Alcotest.test_case "basics" `Quick test_kv_basics;
          Alcotest.test_case "snapshot/restore" `Quick test_kv_snapshot_restore;
          qtest kv_set_idempotent;
        ] );
      ( "durable_site",
        [
          Alcotest.test_case "happy path" `Quick test_happy_path_commit;
          Alcotest.test_case "abort discards" `Quick test_abort_discards;
          Alcotest.test_case "double begin rejected" `Quick
            test_double_begin_rejected;
          Alcotest.test_case "unknown commit rejected" `Quick
            test_commit_unknown_rejected;
          Alcotest.test_case "crash before commit log aborts" `Quick
            test_crash_before_commit_log_aborts;
          Alcotest.test_case "crash mid-apply redoes" `Quick
            test_crash_mid_apply_redoes;
          Alcotest.test_case "prepared is in doubt" `Quick test_prepared_in_doubt;
          Alcotest.test_case "crash loses staged updates" `Quick
            test_crash_loses_staged_updates;
          Alcotest.test_case "multi-transaction recovery" `Quick
            test_multiple_transactions_recovery;
          qtest recovery_always_completes_committed;
          qtest crash_point_equivalence;
          qtest recover_idempotent;
          qtest durable_model_property;
          qtest recover_matches_reference;
          qtest forget_keeps_recovery;
        ] );
    ]
