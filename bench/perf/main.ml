(* The performance benchmark: one named workload per process.

     main.exe --workload W [--seed S] [--seconds N] [--trace [0|1]]
              [--json FILE] [--smoke]
     main.exe --all [same options]        one child process per workload
     main.exe --compare BASE_DIR CHANGE_DIR

   Untraced, a run sets the workload up several times (each set-up
   builds its inputs and runs rep 0 as a warm-up), times three passes
   over the same inputs within [--seconds] and reports the end-to-end
   metrics, scaled to a reference machine speed.  Traced, it
   alternates untraced reps with reps wrapped in benchmark-side spans,
   runs one rep under the runtime's profiler, drives every layer's leg
   and reports the per-layer metrics.  Every run checks its outputs
   and exits 1 if a check fails.  See README.md. *)

type opts = {
  mutable workload : string option;
  mutable seed : int;
  mutable seconds : float option;
  mutable trace : bool;
  mutable json : string option;
  mutable all : bool;
  mutable smoke : bool;
  mutable compare : (string * string) option;
}

let usage =
  "usage: main.exe (--workload W | --all) [--seed S] [--seconds N] [--trace \
   [0|1]] [--json FILE] [--smoke]\n\
  \       main.exe --compare BASE_DIR CHANGE_DIR\n\
   workloads: "
  ^ String.concat ", " (List.map (fun (w : Workloads.t) -> w.name) Workloads.all)

let fail_usage msg =
  prerr_endline ("error: " ^ msg);
  prerr_endline usage;
  exit 2

let parse argv =
  let o =
    {
      workload = None;
      seed = 1;
      seconds = None;
      trace = false;
      json = None;
      all = false;
      smoke = false;
      compare = None;
    }
  in
  let int_arg name v =
    match int_of_string_opt v with Some i -> i | None -> fail_usage (name ^ " wants an integer")
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        o.workload <- Some w;
        go rest
    | "--seed" :: s :: rest ->
        o.seed <- int_arg "--seed" s;
        go rest
    | "--seconds" :: s :: rest -> (
        match float_of_string_opt s with
        | Some v when v > 0. ->
            o.seconds <- Some v;
            go rest
        | _ -> fail_usage "--seconds wants a positive number")
    | "--trace" :: ("0" | "1" as v) :: rest ->
        o.trace <- v = "1";
        go rest
    | "--trace" :: rest ->
        o.trace <- true;
        go rest
    | "--json" :: f :: rest ->
        o.json <- Some f;
        go rest
    | "--all" :: rest ->
        o.all <- true;
        go rest
    | "--smoke" :: rest ->
        o.smoke <- true;
        go rest
    | "--compare" :: a :: b :: rest ->
        o.compare <- Some (a, b);
        go rest
    | arg :: _ -> fail_usage ("unexpected argument " ^ arg)
  in
  go (List.tl (Array.to_list argv));
  o

let size o = if o.smoke then Workloads.Smoke else Workloads.Full

let seconds o =
  match o.seconds with Some s -> s | None -> if o.smoke then 0.05 else 24.

let min_reps o = if o.smoke then 2 else 10

let heap_reps o = if o.smoke then 2 else 30

(* Reps whose JSON feeds [output_digest]: fixed, so the digest does not
   depend on how many reps fit in the time budget. *)
let digest_reps = 10

let render_every = 10

type rep = {
  seconds : float;  (** as measured *)
  scaled : float;  (** scaled to the reference machine (Timing.speed) *)
  minor_words : float;
  majors : int;
  outcome : Workloads.outcome;
}

(* [speed] is read just before the timed part.  Traced runs, whose
   metrics compare runs made side by side, do not scale. *)
let rep ?(speed = Timing.speed) (inst : Workloads.instance) tracer i =
  inst.prepare i;
  let k = speed () in
  let w0 = Gc.minor_words () and m0 = (Gc.quick_stat ()).major_collections in
  let t0 = Timing.now_ns () in
  tracer.Workloads.span "rep" (fun () -> inst.run tracer);
  let seconds = Timing.seconds_since t0 in
  let minor_words = Gc.minor_words () -. w0 in
  let majors = (Gc.quick_stat ()).major_collections - m0 in
  {
    seconds;
    scaled = seconds *. k;
    minor_words;
    majors;
    outcome = inst.finish ~doc:(i < digest_reps);
  }

let unscaled () = 1.

type set_up = { raw_s : float; scaled_s : float; warm_up : Workloads.outcome }

(* A set-up builds the workload's inputs and runs rep 0 as its warm-up.
   The first is timed from process entry and scaled by a speed reading
   taken just after it; the others by one taken just before. *)
let set_up ?(first = false) (w : Workloads.t) o =
  let before = if first then None else Some (Timing.speed ()) in
  let t0 = if first then Timing.process_start else Timing.now_ns () in
  let inst = w.create (size o) ~seed:o.seed in
  let r = rep ~speed:unscaled inst Workloads.untraced 0 in
  let raw_s = Timing.seconds_since t0 in
  let k = match before with Some k -> k | None -> Timing.speed () in
  { raw_s; scaled_s = raw_s *. k; warm_up = r.outcome }

(* The two set-ups every run starts with. *)
let initial_set_ups w o =
  let first = set_up ~first:true w o in
  [ first; set_up w o ]

let digest_of reps =
  List.filteri (fun i _ -> i < digest_reps) reps
  |> List.map (fun r -> r.outcome.doc)
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

let gates ~warmups reps =
  let first_doc = match reps with r :: _ -> r.outcome.doc | [] -> "" in
  List.concat_map (fun s -> s.warm_up.errors) warmups
  @ List.concat_map (fun r -> r.outcome.errors) reps
  @ List.filter_map
      (fun s ->
        if String.equal s.warm_up.doc first_doc then None
        else Some "a warm-up rep's output differs from the first timed rep's (same seed)")
      warmups

let totals reps =
  List.fold_left
    (fun (a, f) r -> (a + r.outcome.ops, f + r.outcome.failed))
    (0, 0) reps

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1e6

(* The timed phase makes [passes] passes over the same inputs (rep [i]
   always draws seed [S + i]); an input's time is the fastest of its
   scaled runs.  Scaling (Timing.speed) takes out the spells in which
   the whole host is slow; the passes spread each input's runs across
   the budget, so a burst of load shorter than a pass cannot move an
   input's time either, while every run still pays its own allocation
   and collection work.  The first pass runs inputs for a [passes]-th
   of the budget; the others rerun the same inputs.  Set-ups are spread
   the same way: two before the first pass and one after each pass. *)
let passes = 3

let untraced_run (w : Workloads.t) o =
  let warmups = ref (List.rev (initial_set_ups w o)) in
  let set_up_again () = warmups := set_up w o :: !warmups in
  let inst = w.create (size o) ~seed:o.seed in
  (* Timed reps start from a collected heap, not one holding the
     set-ups' garbage. *)
  Gc.full_major ();
  (* The heap high-water mark after a fixed amount of work (the first
     set-ups and [heap_reps] inputs, or the first pass if that is
     shorter), so that it does not depend on how many inputs fit in the
     budget. *)
  let heap = ref None in
  (* One pass: a rep of each input, and a render sample of rep 0's
     output after every [render_every]-th input. *)
  let pass ~more =
    let reps = ref [] and renders = ref [] in
    let rec go i =
      if more i then begin
        reps := rep inst Workloads.untraced i :: !reps;
        if i mod render_every = 0 then begin
          let k = Timing.speed () in
          let raw = Timing.per_call ~samples:1 inst.render in
          renders := (raw, raw *. k) :: !renders
        end;
        if i = heap_reps o - 1 && !heap = None then heap := Some (peak_heap_mb ());
        go (i + 1)
      end
    in
    go 0;
    if !heap = None then heap := Some (peak_heap_mb ());
    set_up_again ();
    (Array.of_list (List.rev !reps), Array.of_list (List.rev !renders))
  in
  let start = Timing.now_ns () in
  let budget = seconds o /. float_of_int passes in
  let first_reps, _ as first =
    pass ~more:(fun i -> i < min_reps o || Timing.seconds_since start < budget)
  in
  let inputs = Array.length first_reps in
  let runs = first :: List.init (passes - 1) (fun _ -> pass ~more:(fun i -> i < inputs)) in
  let fastest samples =
    List.init
      (Array.length (samples first))
      (fun i -> List.fold_left (fun acc run -> Float.min acc (samples run).(i)) infinity runs)
  in
  let best = fastest (fun (reps, _) -> Array.map (fun r -> r.scaled) reps) in
  let best_raw = fastest (fun (reps, _) -> Array.map (fun r -> r.seconds) reps) in
  let all = List.concat_map (fun (reps, _) -> Array.to_list reps) runs in
  let first_pass = Array.to_list first_reps in
  let reruns_differ =
    List.concat_map
      (fun (reps, _) ->
        List.filter_map
          (fun i ->
            if String.equal reps.(i).outcome.doc first_reps.(i).outcome.doc then None
            else Some (Printf.sprintf "rep %d: another run of the same input gave other output" i))
          (List.init (Stdlib.min inputs digest_reps) Fun.id))
      (List.tl runs)
  in
  let warmups = List.rev !warmups in
  let errors = gates ~warmups all @ reruns_differ @ inst.close () in
  let attempted, failed = totals all in
  let p50 = Timing.median best in
  let setup_times = List.map (fun s -> s.scaled_s) warmups in
  let setup_raw = List.map (fun s -> s.raw_s) warmups in
  {
    Output.workload = w.name;
    seed = o.seed;
    traced = false;
    reps = List.length all;
    attempted;
    failed;
    errors;
    digest = digest_of first_pass;
    metrics =
      [
        ("setup_s", Timing.median setup_times);
        ("txns_per_s", float_of_int (fst (totals first_pass)) /. float_of_int inputs /. p50);
        ("rep_s_p50", p50);
        ("rep_s_p90", Timing.quantile 0.9 best);
        ("render_s", Timing.median (fastest (fun (_, r) -> Array.map snd r)));
        ("peak_heap_mb", Option.get !heap);
      ];
    info =
      [
        ("peak_heap_mb_at_exit", peak_heap_mb (), "MB");
        ("inputs", float_of_int inputs, "count");
        ("passes", float_of_int passes, "count");
        ("render_samples", float_of_int (passes * Array.length (snd first)), "count");
        ("set_ups", float_of_int (List.length warmups), "count");
        ("setup_first_s_raw", List.hd setup_raw, "s");
        ("setup_s_raw", Timing.median setup_raw, "s");
        ("ops_attempted", float_of_int attempted, "op");
        ("ops_failed", float_of_int failed, "op");
        ("failed_share", float_of_int failed /. float_of_int (Stdlib.max 1 attempted), "fraction");
        ("rep_s_p50_raw", Timing.median best_raw, "s");
        ("rep_s_p90_raw", Timing.quantile 0.9 best_raw, "s");
        ("render_s_raw", Timing.median (fastest (fun (_, r) -> Array.map fst r)), "s");
        ( "reference_s_p50",
          Timing.median
            (List.map (fun r -> Timing.reference_nominal_s *. r.seconds /. r.scaled) all),
          "s" );
      ];
  }

(* Benchmark-side spans at wall-clock microseconds since process start,
   recorded with the repository's own span recorder. *)
let span_tracer spans ~site ~tid =
  let us () = Vtime.of_int ((Timing.now_ns () - Timing.process_start) / 1000) in
  {
    Workloads.span =
      (fun name f ->
        Obs.span_begin spans ~at:(us ()) ~site ~tid ~cat:"bench" name;
        let r = f () in
        Obs.span_end spans ~at:(us ()) ~site ~tid;
        r);
  }

(* Median duration of every span name, in microseconds. *)
let span_medians spans =
  let table = Hashtbl.create 16 in
  ignore
    (Obs.fold_closed_spans spans ~from:0 (fun ~name ~cat:_ ~dur ->
         let prev = Option.value (Hashtbl.find_opt table name) ~default:[] in
         Hashtbl.replace table name (float_of_int dur :: prev)));
  Hashtbl.fold (fun name durs acc -> (Obs.name_string spans name, Timing.median durs) :: acc) table []
  |> List.sort compare

let traced_run (w : Workloads.t) o =
  let warmups = initial_set_ups w o in
  let spans = Obs.create () in
  let plain = w.create (size o) ~seed:o.seed in
  let traced = w.create (size o) ~seed:o.seed in
  let start = Timing.now_ns () in
  let traced_rep i = rep ~speed:unscaled traced (span_tracer spans ~site:1 ~tid:(i + 1)) i in
  (* Alternate which side goes first, so neither always runs on the
     heap the other left behind. *)
  let rec loop i plain_reps traced_reps =
    if i >= min_reps o && Timing.seconds_since start >= seconds o /. 2. then
      (List.rev plain_reps, List.rev traced_reps)
    else if i land 1 = 0 then
      let p = rep ~speed:unscaled plain Workloads.untraced i in
      let t = traced_rep i in
      loop (i + 1) (p :: plain_reps) (t :: traced_reps)
    else
      let t = traced_rep i in
      let p = rep ~speed:unscaled plain Workloads.untraced i in
      loop (i + 1) (p :: plain_reps) (t :: traced_reps)
  in
  let plain_reps, traced_reps = loop 0 [] [] in
  let legs = span_tracer spans ~site:2 ~tid:1 in
  let profile = legs.span "profile" plain.profile in
  let counts = legs.span "counts" plain.counts in
  let shape = plain.shape () in
  let report_json_s = legs.span "report.to_json" (fun () -> Timing.per_call plain.report_json) in
  let timeline_s = legs.span "report.timeline" (fun () -> Timing.per_call plain.timeline) in
  let self_check = legs.span "self-check" plain.self_check in
  let ops_of reps = float_of_int (fst (totals reps)) in
  let sum f reps = List.fold_left (fun acc r -> acc +. f r) 0. reps in
  let inputs =
    {
      Layers.counts;
      shape;
      rep_s = Timing.median (List.map (fun r -> r.seconds) plain_reps);
      traced_rep_s = Timing.median (List.map (fun r -> r.seconds) traced_reps);
      minor_words_per_op = sum (fun r -> r.minor_words) plain_reps /. ops_of plain_reps;
      major_per_kop =
        1000. *. sum (fun r -> float_of_int r.majors) plain_reps /. ops_of plain_reps;
      profile;
      report_json_s;
      timeline_s;
    }
  in
  let metrics, bases = Layers.measure ~tracer:legs inputs in
  Obs.close_open_spans spans ~at:(Vtime.of_int ((Timing.now_ns () - Timing.process_start) / 1000));
  let oc = open_out (Printf.sprintf "perf-spans-%s.json" w.name) in
  output_string oc (Obs.to_trace_event_json spans);
  close_out oc;
  let reps = plain_reps @ traced_reps in
  let attempted, failed = totals reps in
  let profile_rows =
    match profile with
    | None -> []
    | Some p ->
        List.concat_map
          (fun (row : Prof.row) ->
            [
              ("prof." ^ row.row_bucket ^ "_s", row.row_seconds, "s");
              ("prof." ^ row.row_bucket ^ "_entries", float_of_int row.row_entries, "count");
            ])
          p.rows
  in
  {
    Output.workload = w.name;
    seed = o.seed;
    traced = true;
    reps = List.length reps;
    attempted;
    failed;
    errors =
      gates ~warmups plain_reps @ gates ~warmups traced_reps @ plain.close ()
      @ traced.close () @ self_check;
    digest = digest_of plain_reps;
    metrics;
    info =
      [
        ("reps_untraced", float_of_int (List.length plain_reps), "count");
        ("reps_traced", float_of_int (List.length traced_reps), "count");
      ]
      @ bases @ profile_rows
      @ List.map (fun (name, us) -> ("span." ^ name ^ "_us_p50", us, "us")) (span_medians spans)
      @ [ ("peak_heap_mb", peak_heap_mb (), "MB") ];
  }

let run_one o name =
  match Workloads.find name with
  | None -> fail_usage ("unknown workload " ^ name)
  | Some w ->
      let r = if o.trace then traced_run w o else untraced_run w o in
      Output.print_lines r;
      List.iter (fun e -> prerr_endline ("check failed: " ^ e)) r.errors;
      Option.iter (fun path -> Output.append_record path r) o.json;
      print_endline (Output.to_string (Output.result_line r));
      exit (if r.errors = [] then 0 else 1)

(* Reads a child's standard output to the end, then reaps it. *)
let spawn args =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process Sys.executable_name args Unix.stdin w Unix.stderr in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let buf = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  (Buffer.contents buf, status)

(* Every metric line has four fields, and the last line is the result
   object: exactly [correct], [attempted], [failed] and [metrics], a
   correct run with at least one operation, and a number for every
   metric of the catalog (end-to-end, or per-layer when traced), in
   catalog order. *)
let output_errors ~traced name out =
  let lines = String.split_on_char '\n' out |> List.filter (fun l -> l <> "") in
  let expected =
    List.map (fun (m : Catalog.t) -> m.name)
      (if traced then Catalog.per_layer else Catalog.end_to_end)
  in
  let is_number = function Some (Export.Float _ | Export.Int _) -> true | _ -> false in
  let result_errors line =
    match Export.of_string line with
    | Error e -> [ name ^ ": last line does not parse (" ^ e ^ ")" ]
    | Ok (Export.Obj fields as doc) ->
        let fail cond msg = if cond then [] else [ name ^ ": result " ^ msg ] in
        fail (List.map fst fields = [ "correct"; "attempted"; "failed"; "metrics" ]) "keys"
        @ fail (Export.member "correct" doc = Some (Export.Bool true)) "not correct"
        @ fail
            (match Export.member "attempted" doc with Some (Export.Int n) -> n >= 1 | _ -> false)
            "attempted"
        @ fail (match Export.member "failed" doc with Some (Export.Int _) -> true | _ -> false) "failed"
        @ fail
            (match Export.member "metrics" doc with
            | Some (Export.Obj ms) ->
                List.map fst ms = expected
                && List.for_all (fun (_, m) -> is_number (Export.member "value" m)) ms
            | _ -> false)
            "metrics"
    | Ok _ -> [ name ^ ": last line is not an object" ]
  in
  match List.rev lines with
  | [] -> [ name ^ ": no output" ]
  | last :: metric_lines ->
      result_errors last
      @ List.filter_map
          (fun l ->
            match String.split_on_char ' ' l with
            | [ _; _; _; _ ] -> None
            | _ -> Some (name ^ ": malformed metric line: " ^ l))
          metric_lines

let run_all o =
  Option.iter (fun path -> close_out (open_out path)) o.json;
  let flags =
    [ "--seed"; string_of_int o.seed ]
    @ (match o.seconds with Some s -> [ "--seconds"; string_of_float s ] | None -> [])
    @ (if o.trace then [ "--trace" ] else [])
    @ (if o.smoke then [ "--smoke" ] else [])
    @ match o.json with Some path -> [ "--json"; path ] | None -> []
  in
  let errors =
    List.concat_map
      (fun (w : Workloads.t) ->
        let args = Array.of_list ((Sys.executable_name :: "--workload" :: w.name :: flags)) in
        let out, status = spawn args in
        print_string out;
        flush stdout;
        (match status with Unix.WEXITED 0 -> [] | _ -> [ w.name ^ ": exited non-zero" ])
        @ output_errors ~traced:o.trace w.name out)
      Workloads.all
  in
  let record_errors =
    match o.json with
    | None -> []
    | Some path ->
        Compare.read_lines path
        |> List.filter_map (fun line ->
               match Export.of_string line with
               | Ok _ -> None
               | Error e -> Some (path ^ ": unparsable record (" ^ e ^ ")"))
  in
  List.iter (fun e -> prerr_endline ("check failed: " ^ e)) (errors @ record_errors);
  exit (if errors = [] && record_errors = [] then 0 else 1)

let () =
  let o = parse Sys.argv in
  match (o.compare, o.all, o.workload) with
  | Some (base, change), _, _ -> exit (if Compare.run base change = 0 then 0 else 1)
  | None, true, _ -> run_all o
  | None, false, Some name -> run_one o name
  | None, false, None -> fail_usage "name a --workload, or pass --all or --compare"
