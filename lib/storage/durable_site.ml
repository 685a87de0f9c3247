module Int_map = Map.Make (Int)

type t = {
  mutable wal : Wal.record list;  (* reversed; stable *)
  db : Kv.t;  (* stable *)
  mutable volatile_staged : Wal.update list Int_map.t;
  index :
    (int, [ `Active | `Prepared | `Committed | `Aborted | `Ended ]) Hashtbl.t;
      (* last status-bearing record per tid, kept in lockstep with
         [wal]; makes [status] O(1) on long-lived sites *)
  forgotten : (int, unit) Hashtbl.t;
      (* forgotten tids whose records [wal] still holds *)
}

type recovery_report = {
  redone : int list;
  in_doubt : int list;
  aborted : int list;
}

let create () =
  {
    wal = [];
    db = Kv.create ();
    volatile_staged = Int_map.empty;
    index = Hashtbl.create 64;
    forgotten = Hashtbl.create 16;
  }

let append t record =
  t.wal <- record :: t.wal;
  match record with
  | Wal.Stage _ -> ()  (* staging does not change the tid's status *)
  | Wal.Begin { tid } -> Hashtbl.replace t.index tid `Active
  | Wal.Prepared { tid } -> Hashtbl.replace t.index tid `Prepared
  | Wal.Commit_log { tid; _ } -> Hashtbl.replace t.index tid `Committed
  | Wal.Abort_log { tid } -> Hashtbl.replace t.index tid `Aborted
  | Wal.End { tid } -> Hashtbl.replace t.index tid `Ended

let compact t =
  if Hashtbl.length t.forgotten > 0 then begin
    t.wal <-
      List.filter (fun r -> not (Hashtbl.mem t.forgotten (Wal.tid_of r))) t.wal;
    Hashtbl.clear t.forgotten
  end

let wal_records t =
  compact t;
  List.rev t.wal

let of_stable ~wal ~db =
  let t = { (create ()) with db } in
  List.iter (append t) wal;
  t

let status t ~tid =
  match Hashtbl.find_opt t.index tid with
  | Some s -> (s :> [ `Unknown | `Active | `Prepared | `Committed | `Aborted | `Ended ])
  | None -> `Unknown

let begin_transaction t ~tid =
  match status t ~tid with
  | `Unknown -> append t (Wal.Begin { tid })
  | `Active | `Prepared | `Committed | `Aborted | `Ended ->
      invalid_arg (Printf.sprintf "Durable_site: tid %d already known" tid)

let require t ~tid expected =
  let got = status t ~tid in
  if not (List.mem got expected) then
    invalid_arg
      (Printf.sprintf "Durable_site: tid %d in unexpected state" tid)

let staged t ~tid =
  match Int_map.find_opt tid t.volatile_staged with
  | Some updates -> updates
  | None -> []

let stage t ~tid updates =
  require t ~tid [ `Active; `Prepared ];
  t.volatile_staged <- Int_map.add tid updates t.volatile_staged;
  (* Once prepared the staged buffer must survive a crash: the group may
     still commit while this site is in doubt, and the volatile copy is
     exactly what a crash destroys. *)
  if status t ~tid = `Prepared && updates <> [] then
    append t (Wal.Stage { tid; updates })

let prepare t ~tid =
  require t ~tid [ `Active ];
  (match staged t ~tid with
  | [] -> ()
  | updates -> append t (Wal.Stage { tid; updates }));
  append t (Wal.Prepared { tid })

let apply_updates t updates = List.iter (fun (u : Wal.update) -> Kv.set t.db ~key:u.key ~value:u.value) updates

let crash t = t.volatile_staged <- Int_map.empty

let commit t ?crash_after ~tid () =
  require t ~tid [ `Active; `Prepared ];
  let updates = staged t ~tid in
  append t (Wal.Commit_log { tid; updates });
  (match crash_after with
  | None ->
      apply_updates t updates;
      append t (Wal.End { tid });
      t.volatile_staged <- Int_map.remove tid t.volatile_staged
  | Some n ->
      let rec take k = function
        | [] -> []
        | _ when k = 0 -> []
        | u :: rest -> u :: take (k - 1) rest
      in
      apply_updates t (take n updates);
      crash t)

let abort t ~tid =
  require t ~tid [ `Active; `Prepared ];
  append t (Wal.Abort_log { tid });
  t.volatile_staged <- Int_map.remove tid t.volatile_staged

(* The log drops a forgotten tid's records once forgotten tids outnumber
   the known ones, so each filtering pass is paid for by the forgets
   before it. *)
let forget t ~tid =
  match status t ~tid with
  | `Ended | `Aborted ->
      Hashtbl.remove t.index tid;
      Hashtbl.replace t.forgotten tid ();
      if Hashtbl.length t.forgotten > Hashtbl.length t.index then compact t
  | `Unknown | `Active | `Prepared | `Committed -> ()

(* What one pass over the WAL keeps per transaction: the updates of its
   last commit record and of its last stage record. *)
type replay = {
  mutable committed_updates : Wal.update list option;
  mutable staged_updates : Wal.update list option;
}

let recover ?(undecided = []) t =
  crash t;
  let replays = Hashtbl.create 64 and tids = ref [] in
  List.iter
    (fun record ->
      let tid = Wal.tid_of record in
      let replay =
        match Hashtbl.find_opt replays tid with
        | Some replay -> replay
        | None ->
            let replay = { committed_updates = None; staged_updates = None } in
            Hashtbl.add replays tid replay;
            tids := tid :: !tids;
            replay
      in
      match record with
      | Wal.Commit_log { updates; _ } -> replay.committed_updates <- Some updates
      | Wal.Stage { updates; _ } -> replay.staged_updates <- Some updates
      | Wal.Begin _ | Wal.Prepared _ | Wal.Abort_log _ | Wal.End _ -> ())
    (wal_records t);
  let redone = ref [] and in_doubt = ref [] and aborted = ref [] in
  List.iter
    (fun tid ->
      let replay = Hashtbl.find replays tid in
      match status t ~tid with
      | `Ended | `Aborted | `Unknown -> ()
      | `Committed ->
          (* Redo every update from the commit log; idempotence makes
             replaying already-applied ones harmless. *)
          apply_updates t (Option.value replay.committed_updates ~default:[]);
          append t (Wal.End { tid });
          redone := tid :: !redone
      | `Prepared ->
          (* Re-stage the update information from the forced Stage
             record so a later group-commit can still apply it. *)
          (match replay.staged_updates with
          | Some updates ->
              t.volatile_staged <- Int_map.add tid updates t.volatile_staged
          | None -> ());
          in_doubt := tid :: !in_doubt
      | `Active ->
          (* The paper's rule aborts transactions that never reached the
             prepared state — but a caller that knows the group has not
             yet decided (termination may still commit while this site was
             between its vote and the forced prepare) can keep them open
             and report them in doubt instead. *)
          if List.mem tid undecided then in_doubt := tid :: !in_doubt
          else begin
            append t (Wal.Abort_log { tid });
            aborted := tid :: !aborted
          end)
    (List.rev !tids);
  {
    redone = List.rev !redone;
    in_doubt = List.rev !in_doubt;
    aborted = List.rev !aborted;
  }

let read t key = Kv.get t.db key

let database t = t.db

let pp fmt t =
  Format.fprintf fmt "wal:@.";
  List.iter (fun r -> Format.fprintf fmt "  %a@." Wal.pp r) (wal_records t);
  Format.fprintf fmt "db: %a@." Kv.pp t.db
