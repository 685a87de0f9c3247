module Export = Commit_checker.Export

type txn = {
  contributions : (Site_id.t * int) list;
  mutable decisions : (Site_id.t * Types.decision) list;
  mutable settled : bool;
}

type t = {
  n : int;
  txns : (int, txn) Hashtbl.t;
  mutable open_count : int;
  mutable settled_count : int;
  mutable torn : int list;  (* descending insertion; reversed on read *)
  mutable breaches : int;
  mutable applied : int;
  mutable atomic_expected : int;
  mutable dead : Site_id.Set.t;  (* crash-stopped; exempt from settling *)
}

let create ~n () =
  if n < 2 then invalid_arg "Auditor.create: need at least two sites";
  {
    n;
    txns = Hashtbl.create 128;
    open_count = 0;
    settled_count = 0;
    torn = [];
    breaches = 0;
    applied = 0;
    atomic_expected = 0;
    dead = Site_id.Set.empty;
  }

let begin_txn t ~tid ~contributions =
  if Hashtbl.mem t.txns tid then
    invalid_arg (Printf.sprintf "Auditor.begin_txn: duplicate tid %d" tid);
  Hashtbl.add t.txns tid { contributions; decisions = []; settled = false };
  t.open_count <- t.open_count + 1

let contribution txn site =
  match List.assoc_opt site txn.contributions with Some c -> c | None -> 0

let all txn d =
  List.for_all (fun (_, d') -> Types.equal_decision d d') txn.decisions

let settle t tid txn =
  txn.settled <- true;
  t.open_count <- t.open_count - 1;
  t.settled_count <- t.settled_count + 1;
  let applied_here =
    List.fold_left
      (fun acc (site, d) ->
        match d with
        | Types.Commit -> acc + contribution txn site
        | Types.Abort -> acc)
      0 txn.decisions
  in
  let full =
    List.fold_left (fun acc (_, c) -> acc + c) 0 txn.contributions
  in
  if all txn Types.Commit then t.atomic_expected <- t.atomic_expected + full
  else if all txn Types.Abort then ()
  else begin
    (* torn: agreement violated; the partial deposit is the money bug *)
    t.torn <- tid :: t.torn;
    if applied_here <> 0 && applied_here <> full then
      t.breaches <- t.breaches + 1
  end

(* A transaction settles when every live site has decided; decisions a
   crash-stopped site never makes cannot be waited for. *)
let live_complete t txn =
  List.for_all
    (fun s -> Site_id.Set.mem s t.dead || List.mem_assoc s txn.decisions)
    (Site_id.all ~n:t.n)

let record t ~tid ~site decision =
  match Hashtbl.find_opt t.txns tid with
  | None -> invalid_arg (Printf.sprintf "Auditor.record: unknown tid %d" tid)
  | Some txn -> (
      match List.assoc_opt site txn.decisions with
      | Some prior when Types.equal_decision prior decision -> ()
      | Some _ ->
          invalid_arg
            (Printf.sprintf "Auditor.record: t%d decision flip at site %d" tid
               (Site_id.to_int site))
      | None ->
          txn.decisions <- (site, decision) :: txn.decisions;
          (match decision with
          | Types.Commit -> t.applied <- t.applied + contribution txn site
          | Types.Abort -> ());
          if live_complete t txn && not txn.settled then settle t tid txn;
          (* Every site has now decided alike, so no further decision can
             come for the entry to check.  A torn or flipped entry stays. *)
          if List.compare_length_with txn.decisions t.n = 0 && all txn decision
          then Hashtbl.remove t.txns tid)

let mark_dead t ~site =
  if not (Site_id.Set.mem site t.dead) then begin
    t.dead <- Site_id.Set.add site t.dead;
    (* Open transactions may already be complete over the survivors.
       Counters are order-independent and [torn] is sorted on read, so
       the hashtable's iteration order does not leak into results. *)
    Hashtbl.iter
      (fun tid txn ->
        if (not txn.settled) && txn.decisions <> [] && live_complete t txn
        then settle t tid txn)
      t.txns
  end

let mark_recovered t ~site =
  (* Settled transactions stay settled; open ones now require this
     site's decision again before they are judged complete (the runtime
     supplies it via the recovery rule). *)
  t.dead <- Site_id.Set.remove site t.dead

let open_txns t = t.open_count

let settled t = t.settled_count

let torn_tids t = List.sort Int.compare t.torn

let agreement_violations t = List.length t.torn

let conservation_breaches t = t.breaches

let applied_total t = t.applied

let atomic_expected_total t = t.atomic_expected

let check t =
  match (t.torn, t.breaches) with
  | [], 0 -> Ok ()
  | [], b -> Error (Printf.sprintf "%d conservation breach(es)" b)
  | torn, b ->
      Error
        (Printf.sprintf
           "%d torn transaction(s) (first: t%d), %d conservation breach(es)"
           (List.length torn)
           (List.fold_left Stdlib.min max_int torn)
           b)

let to_json t =
  Export.Obj
    [
      ("settled", Export.Int (settled t));
      ("open", Export.Int (open_txns t));
      ("agreement_violations", Export.Int (agreement_violations t));
      ("conservation_breaches", Export.Int (conservation_breaches t));
      ("torn_tids", Export.List (List.map (fun i -> Export.Int i) (torn_tids t)));
      ("applied_total", Export.Int (applied_total t));
      ("atomic_expected_total", Export.Int (atomic_expected_total t));
    ]
