module Stats = Commit_checker.Stats
module Export = Commit_checker.Export

type t = {
  t_unit : Vtime.t;
  bucket : Vtime.t;
  counters : (string, int ref) Hashtbl.t;
  serieses : (string, (int, int ref) Hashtbl.t) Hashtbl.t;
  histograms : (string, Stats.Acc.acc ref) Hashtbl.t;
  (* Gauges are point-in-time samples (queue depths, live-site counts):
     [set_gauge] replaces, unlike the monotonic counters. *)
  gauges : (string, int ref) Hashtbl.t;
  (* Per-window histogram accumulators, maintained alongside the
     cumulative ones only once a snapshot cursor exists ([windowed]) so
     runs without telemetry pay nothing extra. *)
  window_hists : (string, Stats.Acc.acc ref) Hashtbl.t;
  mutable windowed : bool;
}

let create ?bucket ~t_unit () =
  let bucket =
    match bucket with
    | Some b ->
        if Vtime.to_int b <= 0 then
          invalid_arg "Metrics.create: bucket must be positive";
        b
    | None -> Vtime.of_int (10 * Vtime.to_int t_unit)
  in
  {
    t_unit;
    bucket;
    counters = Hashtbl.create 32;
    serieses = Hashtbl.create 8;
    histograms = Hashtbl.create 8;
    gauges = Hashtbl.create 8;
    window_hists = Hashtbl.create 8;
    windowed = false;
  }

let t_unit t = t.t_unit

let bucket_ticks t = t.bucket

let find_or tbl name make =
  match Hashtbl.find_opt tbl name with
  | Some v -> v
  | None ->
      let v = make () in
      Hashtbl.add tbl name v;
      v

let add t name delta =
  if delta < 0 then invalid_arg "Metrics.add: counters are monotonic";
  let cell = find_or t.counters name (fun () -> ref 0) in
  cell := !cell + delta

let incr t name = add t name 1

let counter t name =
  match Hashtbl.find_opt t.counters name with Some c -> !c | None -> 0

let sorted_keys tbl =
  Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort String.compare

let counters t = List.map (fun k -> (k, counter t k)) (sorted_keys t.counters)

let set_gauge t name value =
  let cell = find_or t.gauges name (fun () -> ref 0) in
  cell := value

let gauge t name =
  match Hashtbl.find_opt t.gauges name with Some c -> !c | None -> 0

let gauges t = List.map (fun k -> (k, gauge t k)) (sorted_keys t.gauges)

let bucket_of t at = Vtime.to_int at / Vtime.to_int t.bucket

let mark t ~at name =
  let buckets = find_or t.serieses name (fun () -> Hashtbl.create 32) in
  let cell = find_or buckets (bucket_of t at) (fun () -> ref 0) in
  Stdlib.incr cell

let series t name =
  match Hashtbl.find_opt t.serieses name with
  | None -> []
  | Some buckets ->
      Hashtbl.fold (fun b c acc -> (b, !c) :: acc) buckets []
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let series_names t = sorted_keys t.serieses

let observe t name sample =
  let cell = find_or t.histograms name (fun () -> ref Stats.Acc.empty) in
  cell := Stats.Acc.add !cell sample;
  if t.windowed then begin
    let wcell = find_or t.window_hists name (fun () -> ref Stats.Acc.empty) in
    wcell := Stats.Acc.add !wcell sample
  end

let merge_histogram t name acc =
  let cell = find_or t.histograms name (fun () -> ref Stats.Acc.empty) in
  cell := Stats.Acc.merge !cell acc;
  if t.windowed then begin
    let wcell = find_or t.window_hists name (fun () -> ref Stats.Acc.empty) in
    wcell := Stats.Acc.merge !wcell acc
  end

let histogram t name =
  match Hashtbl.find_opt t.histograms name with
  | None -> None
  | Some acc -> Stats.Acc.to_stats !acc

let merge_into dst src =
  if Vtime.to_int dst.bucket <> Vtime.to_int src.bucket then
    invalid_arg "Metrics.merge_into: bucket widths differ";
  Hashtbl.iter (fun name cell -> add dst name !cell) src.counters;
  Hashtbl.iter
    (fun name buckets ->
      let into = find_or dst.serieses name (fun () -> Hashtbl.create 32) in
      Hashtbl.iter
        (fun b c ->
          let cell = find_or into b (fun () -> ref 0) in
          cell := !cell + !c)
        buckets)
    src.serieses;
  Hashtbl.iter
    (fun name acc -> merge_histogram dst name !acc)
    src.histograms;
  (* Gauges are samples, not sums, but sweep partials are disjoint runs
     whose end-of-run values would otherwise vanish: summing keeps the
     aggregate meaningful (total in-flight across merged runs). *)
  Hashtbl.iter
    (fun name cell -> set_gauge dst name (gauge dst name + !cell))
    src.gauges

(* ---- windowed delta snapshots ------------------------------------------ *)

(* A cursor remembers what has already been emitted so each [snapshot]
   call yields only the delta: counter values at the last cut (presence
   in the table doubling as "already emitted once"), the first series
   bucket not yet closed, and the window histogram accumulators (which
   drain on every cut).  Summing a run's snapshots therefore rebuilds
   its final metrics exactly — counters and series cells are sums and
   [Stats.Acc] is a merge monoid. *)

type cursor = {
  last_counters : (string, int) Hashtbl.t;
  mutable next_series_bucket : int;
  mutable last_upto : Vtime.t;
  mutable next_seq : int;
}

type snapshot = {
  snap_seq : int;
  snap_since : Vtime.t;  (* exclusive start: the previous cut *)
  snap_upto : Vtime.t;  (* inclusive end of the window *)
  snap_final : bool;
  snap_counters : (string * int) list;  (* deltas since the last cut *)
  snap_gauges : (string * int) list;  (* sampled at the cut *)
  snap_series : (string * (int * int) list) list;  (* buckets closed *)
  snap_hists : (string * Stats.Acc.acc) list;  (* this window only *)
}

let create_cursor t =
  if
    Hashtbl.length t.counters > 0
    || Hashtbl.length t.serieses > 0
    || Hashtbl.length t.histograms > 0
  then
    invalid_arg "Metrics.create_cursor: create the cursor before recording";
  t.windowed <- true;
  {
    last_counters = Hashtbl.create 32;
    next_series_bucket = 0;
    last_upto = Vtime.zero;
    next_seq = 0;
  }

(* Cut a window ending at [at] (calls must use non-decreasing times).
   A counter appears the first time it exists and whenever it moved —
   so a counter created at value 0 still reaches a merged rebuild.  A
   series bucket is emitted once closed (strictly before [at]'s bucket;
   engine time is monotonic, so closed buckets cannot gain marks); the
   [final] cut flushes the still-open tail buckets too. *)
let snapshot t cursor ~at ~final =
  let snap_counters =
    List.filter_map
      (fun (name, cur) ->
        let last = Hashtbl.find_opt cursor.last_counters name in
        match last with
        | Some v when v = cur -> None
        | _ ->
            Hashtbl.replace cursor.last_counters name cur;
            Some (name, cur - Option.value last ~default:0))
      (counters t)
  in
  let upto_bucket = if final then max_int else bucket_of t at in
  let from = cursor.next_series_bucket in
  (* A periodic cut probes only the buckets it closes, so its cost does
     not grow with the run.  A window wider than the whole series (the
     final cut's open tail, say) scans the series instead. *)
  let window_cells buckets =
    if upto_bucket - from > Hashtbl.length buckets then
      Hashtbl.fold
        (fun b c acc -> if b >= from && b < upto_bucket then (b, !c) :: acc else acc)
        buckets []
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    else
      let cells = ref [] in
      for b = upto_bucket - 1 downto from do
        match Hashtbl.find_opt buckets b with
        | Some c -> cells := (b, !c) :: !cells
        | None -> ()
      done;
      !cells
  in
  let snap_series =
    List.filter_map
      (fun name ->
        match window_cells (Hashtbl.find t.serieses name) with
        | [] -> None
        | cells -> Some (name, cells))
      (series_names t)
  in
  let snap_hists =
    List.filter_map
      (fun name ->
        match Hashtbl.find_opt t.window_hists name with
        | Some cell when Stats.Acc.count !cell > 0 ->
            let acc = !cell in
            cell := Stats.Acc.empty;
            Some (name, acc)
        | _ -> None)
      (sorted_keys t.window_hists)
  in
  let snap =
    {
      snap_seq = cursor.next_seq;
      snap_since = cursor.last_upto;
      snap_upto = at;
      snap_final = final;
      snap_counters;
      snap_gauges = gauges t;
      snap_series;
      snap_hists;
    }
  in
  cursor.next_seq <- cursor.next_seq + 1;
  cursor.next_series_bucket <- max cursor.next_series_bucket upto_bucket;
  cursor.last_upto <- at;
  snap

(* Fold one window back into a metrics store.  Replaying a run's
   snapshots in stream order reproduces its final metrics: counters and
   series cells sum, histograms merge, and gauges are last-write-wins
   so the final sample sticks. *)
let merge_snapshot t snap =
  List.iter (fun (name, delta) -> add t name delta) snap.snap_counters;
  List.iter (fun (name, v) -> set_gauge t name v) snap.snap_gauges;
  List.iter
    (fun (name, cells) ->
      let buckets = find_or t.serieses name (fun () -> Hashtbl.create 32) in
      List.iter
        (fun (b, c) ->
          let cell = find_or buckets b (fun () -> ref 0) in
          cell := !cell + c)
        cells)
    snap.snap_series;
  List.iter (fun (name, acc) -> merge_histogram t name acc) snap.snap_hists

let snapshot_to_json ?run t snap =
  let ints kvs = Export.Obj (List.map (fun (k, v) -> (k, Export.Int v)) kvs) in
  let series_json =
    Export.Obj
      (List.map
         (fun (name, cells) ->
           ( name,
             Export.List
               (List.map
                  (fun (b, c) -> Export.List [ Export.Int b; Export.Int c ])
                  cells) ))
         snap.snap_series)
  in
  let hists_json =
    Export.Obj
      (List.filter_map
         (fun (name, acc) ->
           Option.map
             (fun s -> (name, Export.of_stats s))
             (Stats.Acc.to_stats acc))
         snap.snap_hists)
  in
  Export.Obj
    ((match run with Some r -> [ ("run", Export.String r) ] | None -> [])
    @ [
        ("seq", Export.Int snap.snap_seq);
        ("t_unit", Export.Int (Vtime.to_int t.t_unit));
        ("bucket_ticks", Export.Int (Vtime.to_int t.bucket));
        ("since", Export.Int (Vtime.to_int snap.snap_since));
        ("upto", Export.Int (Vtime.to_int snap.snap_upto));
        ("final", Export.Bool snap.snap_final);
        ("counters", ints snap.snap_counters);
        ("gauges", ints snap.snap_gauges);
        ("series", series_json);
        ("histograms", hists_json);
      ])

let to_json t =
  let counters_json =
    Export.Obj (List.map (fun (k, v) -> (k, Export.Int v)) (counters t))
  in
  let gauges_json =
    Export.Obj (List.map (fun (k, v) -> (k, Export.Int v)) (gauges t))
  in
  let series_json =
    Export.Obj
      (List.map
         (fun name ->
           ( name,
             Export.List
               (List.map
                  (fun (b, c) -> Export.List [ Export.Int b; Export.Int c ])
                  (series t name)) ))
         (series_names t))
  in
  let histograms_json =
    Export.Obj
      (List.filter_map
         (fun name ->
           Option.map
             (fun s -> (name, Export.of_stats s))
             (histogram t name))
         (sorted_keys t.histograms))
  in
  Export.Obj
    [
      ("bucket_ticks", Export.Int (Vtime.to_int t.bucket));
      ("counters", counters_json);
      ("gauges", gauges_json);
      ("series", series_json);
      ("histograms", histograms_json);
    ]
