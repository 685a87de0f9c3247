type mode = Shared | Exclusive

type grant = { tid : int; key : string; mode : mode }

module String_map = Map.Make (String)

type entry = {
  mutable holders : (int * mode) list;  (* in grant order *)
  mutable queue : (int * mode) list;  (* FIFO *)
}

type t = { mutable table : entry String_map.t }

let create () = { table = String_map.empty }

let entry_for t key =
  match String_map.find_opt key t.table with
  | Some e -> e
  | None ->
      let e = { holders = []; queue = [] } in
      t.table <- String_map.add key e t.table;
      e

let compatible mode holders =
  match mode with
  | Exclusive -> holders = []
  | Shared -> List.for_all (fun (_, m) -> m = Shared) holders

let acquire t ~tid ~key ~mode =
  let e = entry_for t key in
  if e.queue = [] && compatible mode e.holders then begin
    e.holders <- e.holders @ [ (tid, mode) ];
    `Granted
  end
  else begin
    e.queue <- e.queue @ [ (tid, mode) ];
    `Waiting
  end

(* Move queue heads to holders while compatible. *)
let promote key e =
  let granted = ref [] in
  let rec go () =
    match e.queue with
    | (tid, mode) :: rest when compatible mode e.holders ->
        e.holders <- e.holders @ [ (tid, mode) ];
        e.queue <- rest;
        granted := { tid; key; mode } :: !granted;
        go ()
    | _ -> ()
  in
  go ();
  List.rev !granted

(* An entry nobody holds or waits on is dropped, so the table only ever
   holds live keys and a release scans those, not every key ever locked.
   Lookups treat a missing key as an empty entry. *)
let promote_or_drop t key e =
  let granted = promote key e in
  if e.holders = [] && e.queue = [] then t.table <- String_map.remove key t.table;
  granted

let release_all t ~tid =
  let granted = ref [] in
  String_map.iter
    (fun key e ->
      let held = List.mem_assoc tid e.holders in
      let queued_here = List.mem_assoc tid e.queue in
      if held || queued_here then begin
        e.holders <- List.filter (fun (h, _) -> h <> tid) e.holders;
        e.queue <- List.filter (fun (h, _) -> h <> tid) e.queue;
        granted := !granted @ promote_or_drop t key e
      end)
    t.table;
  !granted

let purge t ~keep =
  let woken = ref [] in
  String_map.iter
    (fun key e ->
      let dropped l = List.exists (fun (tid, _) -> not (keep tid)) l in
      if dropped e.holders || dropped e.queue then begin
        let kept, gone = List.partition (fun (tid, _) -> keep tid) e.queue in
        e.holders <- List.filter (fun (tid, _) -> keep tid) e.holders;
        e.queue <- kept;
        let gone = List.map (fun (tid, mode) -> { tid; key; mode }) gone in
        woken := !woken @ gone @ promote_or_drop t key e
      end)
    t.table;
  !woken

let holders t ~key =
  match String_map.find_opt key t.table with None -> [] | Some e -> e.holders

let queued t ~key =
  match String_map.find_opt key t.table with None -> [] | Some e -> e.queue

(* Total number of queued (waiting) lock requests across every key —
   the "lock-wait queue depth" gauge sampled at telemetry cuts. *)
let wait_depth t =
  String_map.fold (fun _ e n -> n + List.length e.queue) t.table 0

let live_keys t = String_map.cardinal t.table
