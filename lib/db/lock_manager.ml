type mode = Shared | Exclusive

let pp_mode fmt = function
  | Shared -> Format.pp_print_string fmt "S"
  | Exclusive -> Format.pp_print_string fmt "X"

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

let holds t ~tid ~key =
  match String_map.find_opt key t.table with
  | None -> None
  | Some e -> List.assoc_opt tid e.holders

let acquire t ~tid ~key ~mode =
  let e = entry_for t key in
  match List.assoc_opt tid e.holders with
  | Some Exclusive -> `Granted
  | Some Shared when mode = Shared -> `Granted
  | Some Shared ->
      (* Upgrade: allowed immediately when sole holder, else wait. *)
      if List.for_all (fun (holder, _) -> holder = tid) e.holders then begin
        e.holders <- [ (tid, Exclusive) ];
        `Granted
      end
      else begin
        e.queue <- e.queue @ [ (tid, Exclusive) ];
        `Waiting
      end
  | None ->
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
    | (tid, mode) :: rest
      when e.holders <> [] && List.for_all (fun (h, _) -> h = tid) e.holders ->
        (* The request's only holder is its own transaction: a queued
           upgrade whose blockers have gone, or a read queued behind the
           same transaction's write. *)
        if mode = Exclusive then e.holders <- [ (tid, Exclusive) ];
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
  let granted = ref [] in
  String_map.iter
    (fun key e ->
      let dropped l = List.exists (fun (tid, _) -> not (keep tid)) l in
      if dropped e.holders || dropped e.queue then begin
        e.holders <- List.filter (fun (tid, _) -> keep tid) e.holders;
        e.queue <- List.filter (fun (tid, _) -> keep tid) e.queue;
        granted := !granted @ promote_or_drop t key e
      end)
    t.table;
  !granted

let holders t ~key =
  match String_map.find_opt key t.table with None -> [] | Some e -> e.holders

let queued t ~key =
  match String_map.find_opt key t.table with None -> [] | Some e -> e.queue

(* Total number of queued (waiting) lock requests across every key —
   the "lock-wait queue depth" gauge sampled at telemetry cuts. *)
let wait_depth t =
  String_map.fold (fun _ e n -> n + List.length e.queue) t.table 0

let live_keys t = String_map.cardinal t.table

let waits_for_edges t =
  String_map.fold
    (fun _ e acc ->
      List.fold_left
        (fun acc (waiter, _) ->
          List.fold_left
            (fun acc (holder, _) ->
              if holder <> waiter then (waiter, holder) :: acc else acc)
            acc e.holders)
        acc e.queue)
    t.table []

let find_cycle edges =
  let nodes =
    List.sort_uniq Int.compare (List.concat_map (fun (a, b) -> [ a; b ]) edges)
  in
  let successors v = List.filter_map (fun (a, b) -> if a = v then Some b else None) edges in
  (* DFS with an explicit path to extract the cycle. *)
  let visited = Hashtbl.create 16 in
  let rec dfs path v =
    if List.mem v path then
      let rec cut = function
        | [] -> []
        | x :: rest -> if x = v then [ x ] else x :: cut rest
      in
      Some (List.rev (cut path))
    else if Hashtbl.mem visited v then None
    else begin
      Hashtbl.add visited v ();
      let rec try_successors = function
        | [] -> None
        | s :: rest -> (
            match dfs (v :: path) s with
            | Some cycle -> Some cycle
            | None -> try_successors rest)
      in
      try_successors (successors v)
    end
  in
  let rec try_nodes = function
    | [] -> None
    | v :: rest -> (
        Hashtbl.reset visited;
        match dfs [] v with Some c -> Some c | None -> try_nodes rest)
  in
  try_nodes nodes

let pp fmt t =
  String_map.iter
    (fun key e ->
      if e.holders <> [] || e.queue <> [] then
        Format.fprintf fmt "%s: held by %s%s@." key
          (String.concat ","
             (List.map
                (fun (tid, m) ->
                  Format.asprintf "t%d(%a)" tid pp_mode m)
                e.holders))
          (if e.queue = [] then ""
           else
             " queue "
             ^ String.concat ","
                 (List.map
                    (fun (tid, m) -> Format.asprintf "t%d(%a)" tid pp_mode m)
                    e.queue)))
    t.table
