(* [--compare BASE_DIR CHANGE_DIR]: every JSON line of every [*.json]
   and [*.jsonl] file in each directory is one run's record (as written
   by [--json]).  For each workload and metric seen on both sides it
   prints each side's median and quartiles with the run count, the
   bound, the change/base ratio with its base, and a verdict:

   - end-to-end: [unresolved] when the base runs spread wider than the
     bound (unless every change run beats every base run), [worse] when
     the change's median is worse than the base's by more than the
     bound, [better] when the two sides' quartile ranges do not overlap
     and the medians differ by more than the base spread, else
     [within bound];
   - per-layer (no bound): [better] or [worse] when the two sides'
     quartile ranges do not overlap, else [within spread].

   A gain is claimed from paired, alternating runs, not from this
   table alone; see README.md. *)

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let records dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json" || Filename.check_suffix f ".jsonl")
  |> List.sort String.compare
  |> List.concat_map (fun f ->
         read_lines (Filename.concat dir f)
         |> List.filter_map (fun line ->
                if String.trim line = "" then None
                else
                  match Export.of_string line with
                  | Ok (Export.Obj _ as doc) when Export.member "workload" doc <> None -> Some doc
                  | Ok _ | Error _ -> None))

let number = function
  | Export.Float f -> Some f
  | Export.Int i -> Some (float_of_int i)
  | _ -> None

(* (workload, metric) -> values, in file order. *)
let values docs =
  let table = Hashtbl.create 64 in
  List.iter
    (fun doc ->
      match (Export.member "workload" doc, Export.member "metrics" doc) with
      | Some (Export.String w), Some (Export.Obj metrics) ->
          List.iter
            (fun (name, m) ->
              match Option.bind (Export.member "value" m) number with
              | Some v ->
                  let key = (w, name) in
                  let prev = Option.value (Hashtbl.find_opt table key) ~default:[] in
                  Hashtbl.replace table key (prev @ [ v ])
              | None -> ())
            metrics
      | _ -> ())
    docs;
  table

(* Positive when [a] is worse than [b], as a share of [b]. *)
let worse_by (m : Catalog.t) a b =
  let d = (a -. b) /. Float.abs b in
  match m.better with Catalog.Lower -> d | Catalog.Higher -> -.d

let beats (m : Catalog.t) a b =
  match m.better with Catalog.Lower -> a < b | Catalog.Higher -> a > b

let verdict (m : Catalog.t) base change =
  let bq = Timing.quartiles base and cq = Timing.quartiles change in
  let spread = (bq.q3 -. bq.q1) /. Float.abs bq.q2 in
  (* Each side's better and worse quartile. *)
  let c_best, c_worst, b_best, b_worst =
    match m.better with
    | Catalog.Lower -> (cq.q1, cq.q3, bq.q1, bq.q3)
    | Catalog.Higher -> (cq.q3, cq.q1, bq.q3, bq.q1)
  in
  let apart_better = beats m c_worst b_best and apart_worse = beats m b_worst c_best in
  match m.bound with
  | Some bound ->
      let all_better = List.for_all (fun c -> List.for_all (fun b -> beats m c b) base) change in
      let worse = worse_by m cq.q2 bq.q2 in
      if spread > bound && not all_better then "unresolved"
      else if worse > bound then "worse"
      else if apart_better && -.worse > spread then "better"
      else "within bound"
  | None ->
      if apart_better then "better" else if apart_worse then "worse" else "within spread"

let side values =
  let q = Timing.quartiles values in
  Printf.sprintf "%s [%s, %s] n=%d" (Output.float_text q.q2) (Output.float_text q.q1)
    (Output.float_text q.q3) (List.length values)

(* Returns the number of end-to-end metrics judged worse. *)
let run base_dir change_dir =
  let base = values (records base_dir) and change = values (records change_dir) in
  let workloads =
    List.map (fun (w : Workloads.t) -> w.name) Workloads.all
    @ (Hashtbl.fold (fun (w, _) _ acc -> w :: acc) base []
      |> List.sort_uniq String.compare
      |> List.filter (fun w -> Workloads.find w = None))
  in
  let regressions = ref 0 in
  List.iter
    (fun w ->
      List.iter
        (fun (m : Catalog.t) ->
          match (Hashtbl.find_opt base (w, m.name), Hashtbl.find_opt change (w, m.name)) with
          | Some b, Some c ->
              let v = verdict m b c in
              if v = "worse" && m.bound <> None then incr regressions;
              let base_median = Timing.median b in
              Printf.printf "%s %s (%s, %s better): base %s | change %s | bound %s | change/base %s of base %s | %s%s\n"
                w m.name m.unit
                (match m.better with Catalog.Lower -> "lower" | Catalog.Higher -> "higher")
                (side b) (side c)
                (match m.bound with
                | Some bound -> Printf.sprintf "%g%%" (100. *. bound)
                | None -> "-")
                (Printf.sprintf "%.4f" (Timing.median c /. base_median))
                (Output.float_text base_median) v
                (if m.layer = "" then "" else Printf.sprintf " | %s, should move %s" m.layer m.moves)
          | _ -> ())
        (Catalog.end_to_end @ Catalog.per_layer))
    workloads;
  !regressions
