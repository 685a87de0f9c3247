type t = {
  initial : (Site_id.t * (string * string) list) list;
  txns : Tm.txn_spec list;
}

let account_key ~site ~index =
  Printf.sprintf "acct:%d:%d" (Site_id.to_int site) index

let bank_transfers ~n ~pairs ~balance ~amount ~spacing ~seed =
  if n < 2 then invalid_arg "Workload.bank_transfers: need two sites";
  let rng = Rng.create seed in
  let initial = Hashtbl.create 16 in
  let add_account site key value =
    let existing = Option.value (Hashtbl.find_opt initial site) ~default:[] in
    Hashtbl.replace initial site ((key, value) :: existing)
  in
  let txns =
    List.init pairs (fun j ->
        let tid = j + 1 in
        let site_a = Site_id.of_int (Rng.int_in rng ~lo:1 ~hi:n) in
        let site_b =
          (* any other site *)
          let rec pick () =
            let s = Site_id.of_int (Rng.int_in rng ~lo:1 ~hi:n) in
            if Site_id.equal s site_a then pick () else s
          in
          pick ()
        in
        let key_a = account_key ~site:site_a ~index:j in
        let key_b = account_key ~site:site_b ~index:j in
        add_account site_a key_a (string_of_int balance);
        add_account site_b key_b (string_of_int balance);
        Tm.txn ~tid
          ~start_at:(Vtime.of_int (tid * Vtime.to_int spacing))
          [
            ( site_a,
              [ { Wal.key = key_a; value = string_of_int (balance - amount) } ] );
            ( site_b,
              [ { Wal.key = key_b; value = string_of_int (balance + amount) } ] );
          ])
  in
  {
    initial = Hashtbl.fold (fun site kvs acc -> (site, kvs) :: acc) initial [];
    txns;
  }

let transfer ~tid ~start_at ~debtor ~creditor ~balance ~amount =
  if Site_id.equal debtor creditor then
    invalid_arg "Workload.transfer: debtor and creditor must differ";
  if amount <= 0 || amount >= balance then
    invalid_arg "Workload.transfer: need 0 < amount < balance";
  (* Plain concatenation: the cluster builds one spec per arrival, and a
     format string costs far more than these two small strings. *)
  let prefix = "acct:" ^ string_of_int tid in
  Tm.txn ~tid ~start_at
    [
      ( debtor,
        [
          {
            Wal.key = prefix ^ ":d";
            value = string_of_int (balance - amount);
          };
        ] );
      ( creditor,
        [
          {
            Wal.key = prefix ^ ":c";
            value = string_of_int (balance + amount);
          };
        ] );
    ]

let transfer_contributions spec =
  List.map
    (fun (site, updates) ->
      ( site,
        List.fold_left
          (fun acc (u : Wal.update) -> acc + int_of_string u.value)
          0 updates ))
    spec.Tm.writes

let expected_total t ~prefix =
  Txn_core.money ~prefix
    (Array.of_list (List.map (fun (_, kvs) -> Txn_core.load kvs) t.initial))

let hot_spot ~n ~txns ~spacing =
  if n < 2 then invalid_arg "Workload.hot_spot: need two sites";
  let hot_site = Site_id.of_int 2 in
  let specs =
    List.init txns (fun j ->
        let tid = j + 1 in
        let private_site = Site_id.of_int ((j mod n) + 1) in
        let writes =
          let private_update =
            ( private_site,
              [ { Wal.key = Printf.sprintf "priv:%d" tid; value = "1" } ] )
          in
          let hot_update =
            (hot_site, [ { Wal.key = "hot"; value = string_of_int tid } ])
          in
          if Site_id.equal private_site hot_site then
            [
              ( hot_site,
                [
                  { Wal.key = "hot"; value = string_of_int tid };
                  { Wal.key = Printf.sprintf "priv:%d" tid; value = "1" };
                ] );
            ]
          else [ hot_update; private_update ]
        in
        Tm.txn ~tid ~start_at:(Vtime.of_int (tid * Vtime.to_int spacing)) writes)
  in
  { initial = [ (hot_site, [ ("hot", "0") ]) ]; txns = specs }

let warehouse_of_item ~n i = Site_id.of_int (2 + (i mod (n - 1)))

let inventory ~n ~items ~orders ~contention ~spacing ~seed =
  if n < 2 then invalid_arg "Workload.inventory: need two sites";
  if contention < 0. || contention > 1. then
    invalid_arg "Workload.inventory: contention must be in [0,1]";
  let rng = Rng.create seed in
  let targeted = ref [] in
  let pick_item () =
    match !targeted with
    | old :: _ when Rng.float rng < contention ->
        if Rng.bool rng then old
        else List.nth !targeted (Rng.int rng ~bound:(List.length !targeted))
    | _ ->
        let fresh = Rng.int rng ~bound:items in
        targeted := fresh :: !targeted;
        fresh
  in
  let txns =
    List.init orders (fun j ->
        let tid = j + 1 in
        let item = pick_item () in
        let owner = Printf.sprintf "order-%d" tid in
        Tm.txn ~tid
          ~start_at:(Vtime.of_int (tid * Vtime.to_int spacing))
          [
            ( warehouse_of_item ~n item,
              [ { Wal.key = Printf.sprintf "own:%d" item; value = owner } ] );
            ( Site_id.of_int 1,
              [ { Wal.key = Printf.sprintf "rcpt:%d" item; value = owner } ] );
          ])
  in
  let initial =
    List.init items (fun i -> (warehouse_of_item ~n i, (Printf.sprintf "own:%d" i, "stocked")))
    |> List.fold_left
         (fun acc (site, kv) ->
           match List.assoc_opt site acc with
           | Some kvs -> (site, kv :: kvs) :: List.remove_assoc site acc
           | None -> (site, [ kv ]) :: acc)
         []
  in
  { initial; txns }

let inventory_consistent (report : Tm.report) =
  let n = Array.length report.Tm.stores in
  let accounting = Durable_site.database report.Tm.stores.(0) in
  let starts_with prefix key =
    String.length key > String.length prefix
    && String.sub key 0 (String.length prefix) = prefix
  in
  (* Forward: every sold item's warehouse owner has a matching receipt. *)
  let forward =
    Array.to_list report.Tm.stores
    |> List.concat_map (fun store -> Kv.snapshot (Durable_site.database store))
    |> List.find_opt (fun (key, owner) ->
           starts_with "own:" key
           && owner <> "stocked"
           &&
           let item = String.sub key 4 (String.length key - 4) in
           Kv.get accounting ("rcpt:" ^ item) <> Some owner)
  in
  match forward with
  | Some (key, owner) ->
      Error
        (Printf.sprintf
           "%s owned by %s at the warehouse but the receipt disagrees" key
           owner)
  | None -> (
      (* Reverse: every receipt points at the item's actual owner — this
         catches the torn order whose warehouse half aborted. *)
      let reverse =
        Kv.snapshot accounting
        |> List.find_opt (fun (key, owner) ->
               starts_with "rcpt:" key
               &&
               match
                 int_of_string_opt (String.sub key 5 (String.length key - 5))
               with
               | None -> false
               | Some item ->
                   let warehouse =
                     Durable_site.database
                       report.Tm.stores.(Site_id.to_int
                                           (warehouse_of_item ~n item)
                                        - 1)
                   in
                   Kv.get warehouse ("own:" ^ string_of_int item) <> Some owner)
      in
      match reverse with
      | Some (key, owner) ->
          Error
            (Printf.sprintf
               "%s receipted to %s but the warehouse owner disagrees" key owner)
      | None -> Ok ())

let uniform_mix ~n ~txns ~keys_per_txn ~key_space ~spacing ~seed =
  let rng = Rng.create seed in
  let site_of_key k = Site_id.of_int ((k mod n) + 1) in
  let key_name k = Printf.sprintf "k%d" k in
  let specs =
    List.init txns (fun j ->
        let tid = j + 1 in
        let chosen = Hashtbl.create 8 in
        let rec pick remaining acc =
          if remaining = 0 then acc
          else
            let k = Rng.int rng ~bound:key_space in
            if Hashtbl.mem chosen k then pick remaining acc
            else begin
              Hashtbl.add chosen k ();
              pick (remaining - 1) (k :: acc)
            end
        in
        let keys = pick (Stdlib.min keys_per_txn key_space) [] in
        let writes =
          List.fold_left
            (fun acc k ->
              let site = site_of_key k in
              let update = { Wal.key = key_name k; value = string_of_int tid } in
              match List.assoc_opt site acc with
              | Some updates ->
                  (site, update :: updates) :: List.remove_assoc site acc
              | None -> (site, [ update ]) :: acc)
            [] keys
        in
        Tm.txn ~tid ~start_at:(Vtime.of_int (tid * Vtime.to_int spacing)) writes)
  in
  let initial =
    List.init key_space (fun k -> (site_of_key k, (key_name k, "0")))
    |> List.fold_left
         (fun acc (site, kv) ->
           match List.assoc_opt site acc with
           | Some kvs -> (site, kv :: kvs) :: List.remove_assoc site acc
           | None -> (site, [ kv ]) :: acc)
         []
  in
  { initial; txns = specs }
