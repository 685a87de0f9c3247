(* Tests for the span recorder (lib/obs): well-formed nesting, export
   determinism (across runs and across domain counts), and the
   zero-allocation guarantee of the disabled recorder. *)

let check = Alcotest.check

let qtest = QCheck_alcotest.to_alcotest

let t_unit = Vtime.of_int 1000

(* ------------------------------------------------------------------ *)
(* Nesting discipline                                                  *)
(* ------------------------------------------------------------------ *)

(* Replay a random op sequence and assert every track's begin/end
   events stay balanced: depth never dips below zero, and after
   [close_open_spans] every track ends at depth 0 with a well-formed
   (stack-ordered) close sequence. *)
let qcheck_balance =
  let op =
    QCheck.(
      quad (int_bound 3) (int_bound 2) (int_bound 2) (int_bound 100)
      |> map (fun (what, site, tid, at) -> (what, site, tid, at)))
  in
  QCheck.Test.make ~name:"span open/close balance under random ops"
    ~count:200
    QCheck.(list_of_size Gen.(int_bound 60) op)
    (fun ops ->
      let obs = Obs.create () in
      let now = ref 0 in
      List.iter
        (fun (what, site, tid, at) ->
          now := !now + at;
          let at = Vtime.of_int !now in
          match what with
          | 0 -> Obs.span_begin obs ~at ~site ~tid "s"
          | 1 -> Obs.span_end obs ~at ~site ~tid
          | 2 -> Obs.instant obs ~at ~site ~tid "i"
          | _ ->
              let id = Obs.flow_start obs ~at ~site ~tid "f" in
              Obs.flow_end obs ~at ~site ~tid id)
        ops;
      Obs.close_open_spans obs ~at:(Vtime.of_int (!now + 1));
      let depth = Hashtbl.create 8 in
      let ok = ref true in
      Obs.iter obs (fun e ->
          let k = (e.Obs.site, e.Obs.tid) in
          let d = Option.value (Hashtbl.find_opt depth k) ~default:0 in
          match e.Obs.kind with
          | Obs.Span_begin -> Hashtbl.replace depth k (d + 1)
          | Obs.Span_end ->
              if d <= 0 then ok := false;
              Hashtbl.replace depth k (d - 1)
          | Obs.Instant | Obs.Flow_start | Obs.Flow_end -> ());
      Hashtbl.iter (fun _ d -> if d <> 0 then ok := false) depth;
      !ok)

let test_spurious_end_dropped () =
  let obs = Obs.create () in
  Obs.span_end obs ~at:Vtime.zero ~site:1 ~tid:1;
  check Alcotest.int "no event for a spurious end" 0 (Obs.num_events obs);
  Obs.span_begin obs ~at:Vtime.zero ~site:1 ~tid:1 "a";
  Obs.span_end obs ~at:(Vtime.of_int 5) ~site:1 ~tid:1;
  Obs.span_end obs ~at:(Vtime.of_int 6) ~site:1 ~tid:1;
  check Alcotest.int "balanced pair only" 2 (Obs.num_events obs);
  check Alcotest.int "depth back to zero" 0 (Obs.open_depth obs ~site:1 ~tid:1)

(* ------------------------------------------------------------------ *)
(* Export determinism                                                  *)
(* ------------------------------------------------------------------ *)

let runner_config () =
  let base = Runner.default_config ~n:3 ~t_unit () in
  {
    base with
    Runner.trace_enabled = false;
    partition =
      Partition.make
        ~group2:(Site_id.set_of_ints [ 3 ])
        ~starts_at:(Vtime.of_int 1500) ~n:3 ();
    delay = Delay.uniform ~t_max:t_unit;
  }

let runner_jsons () =
  let obs = Obs.create () in
  let (_ : Runner.result) =
    Runner.run ~obs (module Termination.Transient) (runner_config ())
  in
  (Obs.to_trace_event_json obs, Obs.to_causality_json obs)

let test_runner_export_repeatable () =
  let t1, c1 = runner_jsons () in
  let t2, c2 = runner_jsons () in
  check Alcotest.string "trace_event byte-identical across runs" t1 t2;
  check Alcotest.string "causality byte-identical across runs" c1 c2;
  check Alcotest.bool "trace_event non-trivial" true
    (String.length t1 > 200)

let test_runner_export_across_jobs () =
  let direct = runner_jsons () in
  let pooled =
    Commit_par.Pool.fold_chunks ~domains:2 ~chunk:1
      ~init:(fun () -> ())
      ~f:(fun () () -> [ runner_jsons () ])
      ~merge:( @ ) [| (); () |]
  in
  check Alcotest.int "one export per item" 2 (List.length pooled);
  List.iter
    (fun (t, c) ->
      check Alcotest.string "trace_event identical across domains" (fst direct) t;
      check Alcotest.string "causality identical across domains" (snd direct) c)
    pooled

let cluster_jsons () =
  let module Runtime = Commit_cluster.Runtime in
  let config =
    {
      (Runtime.default_config ()) with
      Runtime.duration = Vtime.of_int 40_000;
      drain = Vtime.of_int 20_000;
      load = 30;
      timeline =
        Partition.make
          ~group2:(Site_id.set_of_ints [ 3 ])
          ~starts_at:(Vtime.of_int 10_000) ~heals_at:(Vtime.of_int 25_000)
          ~n:3 ();
    }
  in
  let obs = Obs.create () in
  let (_ : Runtime.report) = Runtime.run ~obs config in
  (Obs.to_trace_event_json obs, Obs.to_causality_json obs)

let test_cluster_export_repeatable () =
  let t1, c1 = cluster_jsons () in
  let t2, c2 = cluster_jsons () in
  check Alcotest.string "cluster trace_event byte-identical" t1 t2;
  check Alcotest.string "cluster causality byte-identical" c1 c2

(* The acceptance scenario: a partition mid-w returns in-flight
   messages to their senders (optimistic model), so the recorder must
   hold at least one flow whose start and end sit on the same site. *)
let test_bounce_edge_recorded () =
  let obs = Obs.create () in
  let (_ : Runner.result) =
    Runner.run ~obs (module Termination.Transient) (runner_config ())
  in
  let starts = Hashtbl.create 16 in
  let bounce = ref false in
  Obs.iter obs (fun e ->
      match e.Obs.kind with
      | Obs.Flow_start -> Hashtbl.replace starts e.Obs.flow e.Obs.site
      | Obs.Flow_end -> (
          match Hashtbl.find_opt starts e.Obs.flow with
          | Some src when src = e.Obs.site -> bounce := true
          | Some _ | None -> ())
      | Obs.Span_begin | Obs.Span_end | Obs.Instant -> ());
  check Alcotest.bool "a returned-to-sender flow edge exists" true !bounce

let test_probe_round_span_recorded () =
  let obs = Obs.create () in
  let (_ : Runner.result) =
    Runner.run ~obs (module Termination.Transient) (runner_config ())
  in
  let probe_round = ref false in
  Obs.iter obs (fun e ->
      if e.Obs.kind = Obs.Span_begin && e.Obs.name = "probe-round" then
        probe_round := true);
  check Alcotest.bool "a probe-round span exists" true !probe_round

(* Every registered protocol records its states: in the cut scenario
   each site's timeline holds at least one state span. *)
let test_every_protocol_records_states () =
  List.iter
    (fun (e : Registry.entry) ->
      let obs = Obs.create () in
      let (_ : Runner.result) = Runner.run ~obs e.protocol (runner_config ()) in
      let sites = Hashtbl.create 4 in
      Obs.iter obs (fun ev ->
          if ev.Obs.kind = Obs.Span_begin && ev.Obs.cat = "state" then
            Hashtbl.replace sites ev.Obs.site ());
      check Alcotest.(list int)
        (e.name ^ ": a state span at every site")
        [ 1; 2; 3 ]
        (List.sort compare (List.of_seq (Hashtbl.to_seq_keys sites))))
    Registry.all

(* ------------------------------------------------------------------ *)
(* The disabled recorder allocates nothing                             *)
(* ------------------------------------------------------------------ *)

let test_disabled_allocates_nothing () =
  let obs = Obs.disabled in
  let sink = ref 0 in
  Gc.minor ();
  let collections0 = (Gc.quick_stat ()).Gc.minor_collections in
  let bytes0 = Gc.allocated_bytes () in
  for i = 1 to 10_000 do
    let at = Vtime.of_int i in
    Obs.span_begin obs ~at ~site:1 ~tid:1 "s";
    Obs.instant obs ~at ~site:1 ~tid:1 "i";
    let id = Obs.flow_start obs ~at ~site:1 ~tid:1 "f" in
    Obs.flow_end obs ~at ~site:2 ~tid:1 id;
    Obs.span_end obs ~at ~site:1 ~tid:1;
    sink := !sink + id + Obs.open_depth obs ~site:1 ~tid:1
  done;
  let bytes1 = Gc.allocated_bytes () in
  let collections1 = (Gc.quick_stat ()).Gc.minor_collections in
  check Alcotest.int "flow ids and depths all zero" 0 !sink;
  check Alcotest.int "no minor collection over 50k disabled calls" 0
    (collections1 - collections0);
  (* Gc.allocated_bytes itself boxes a float; anything beyond those two
     boxes would be a leak on the disabled path (50k calls x >= 16 B
     each would show up as >= 800 kB). *)
  check Alcotest.bool "allocation delta below 1 kB" true
    (bytes1 -. bytes0 < 1024.)

let () =
  Alcotest.run "commit_obs"
    [
      ( "nesting",
        [
          qtest qcheck_balance;
          Alcotest.test_case "spurious end dropped" `Quick
            test_spurious_end_dropped;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "runner export repeatable" `Quick
            test_runner_export_repeatable;
          Alcotest.test_case "runner export across jobs" `Quick
            test_runner_export_across_jobs;
          Alcotest.test_case "cluster export repeatable" `Quick
            test_cluster_export_repeatable;
        ] );
      ( "content",
        [
          Alcotest.test_case "bounce edge recorded" `Quick
            test_bounce_edge_recorded;
          Alcotest.test_case "probe-round span recorded" `Quick
            test_probe_round_span_recorded;
          Alcotest.test_case "every protocol records states" `Quick
            test_every_protocol_records_states;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "disabled recorder allocates nothing" `Quick
            test_disabled_allocates_nothing;
        ] );
    ]
