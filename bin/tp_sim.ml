(* tp_sim — command-line driver for the termination-protocol reproduction.

   Subcommands (alphabetical):
     analyze  static FSA analysis (concurrency sets, lemma checks, rules)
     cases    Section 6 case classification for a transient scenario
     check    self-check of the paper's key claims (CI gate)
     cluster  long-running multi-transaction cluster under a partition timeline
              (--seeds fans a domain-parallel sweep, --jobs N domains)
     db       a database workload through a commit protocol
     diagram  ASCII message-sequence diagram of one scenario
     lemma3   exhaustive Lemma 3 augmentation search
     list     available protocols and subcommands
     metrics  render a telemetry snapshot stream (cluster --metrics) as a table
     run      one scenario, full trace
     soak     millions of ticks under a seed-derived randomized fault schedule
              (epochs fan across --jobs domains; byte-identical per seed)
     spans    one scenario, exported as span/flow JSON (Perfetto-loadable)
     sweep    a protocol over the default scenario grid (--jobs N domains)

   Sweeping subcommands accept --jobs N (N >= 1 domains; default
   Domain.recommended_domain_count).  The summary/JSON is byte-identical
   for every N — parallelism only changes the wall clock. *)

(* The one protocol table: lib/checker/registry.ml.  Adding a family
   there is all it takes to reach run/sweep/cluster/list/bench. *)
let protocols : (string * Site.packed) list = Registry.enum

open Cmdliner

let protocol_arg =
  Arg.(
    required
    & opt (some (enum protocols)) None
    & info [ "p"; "protocol" ] ~docv:"PROTOCOL" ~doc:"Protocol to run.")

let n_arg =
  Arg.(value & opt int 3 & info [ "n" ] ~docv:"N" ~doc:"Number of sites.")

let t_arg =
  Arg.(
    value & opt int 1000
    & info [ "T" ] ~docv:"TICKS" ~doc:"Propagation bound T, in ticks.")

let g2_arg =
  Arg.(
    value & opt (list int) []
    & info [ "g2" ] ~docv:"SITES" ~doc:"Slaves forming group G2 (e.g. 3,4).")

let at_arg =
  Arg.(
    value & opt (some int) None
    & info [ "at" ] ~docv:"TICKS" ~doc:"Partition instant.")

let heal_arg =
  Arg.(
    value & opt (some int) None
    & info [ "heal" ] ~docv:"TICKS"
        ~doc:"Heal the partition this many ticks after it starts.")

let seed_arg =
  Arg.(value & opt int64 1L & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let delay_arg =
  let parse = function
    | "minimal" -> Ok `Minimal
    | "full" -> Ok `Full
    | "uniform" -> Ok `Uniform
    | s -> Error (`Msg (Printf.sprintf "unknown delay model %S" s))
  in
  let print fmt m =
    Format.pp_print_string fmt
      (match m with `Minimal -> "minimal" | `Full -> "full" | `Uniform -> "uniform")
  in
  Arg.(
    value
    & opt (conv (parse, print)) `Uniform
    & info [ "delay" ] ~docv:"MODEL" ~doc:"Delay model: minimal, full, uniform.")

let no_votes_arg =
  Arg.(
    value & opt (list int) []
    & info [ "vote-no" ] ~docv:"SITES" ~doc:"Slaves voting no.")

let pessimistic_arg =
  Arg.(
    value & flag
    & info [ "pessimistic" ]
        ~doc:"Lose undeliverable messages instead of returning them.")

let quiet_arg =
  Arg.(
    value & flag
    & info [ "q"; "quiet" ]
        ~doc:
          "Suppress the trace. Tracing stores binary records and renders \
           only what is printed, so a traced run keeps roughly 60 percent \
           of untraced throughput (~830 bytes/event), against ~10x slower \
           with the old eager renderer.")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the sweep (default: the machine's \
           recommended domain count). Must be >= 1; the result is \
           identical for every value. Values above the recommended \
           domain count are clamped to it (extra domains would only \
           time-slice); a stderr warning notes the clamp.")

let grid_arg =
  Arg.(
    value
    & opt (enum [ ("small", `Small); ("large", `Large) ]) `Small
    & info [ "grid" ] ~docv:"SIZE"
        ~doc:
          "Sweep grid size: $(b,small) (the default grid) or $(b,large) \
           (the saturation grid — heal timelines and ten seeds for \
           checker sweeps; seeds 1..8, every policy and a no-partition \
           baseline for cluster sweeps). The summary format is the same; \
           large just gives parallel domains enough work to matter.")

(* Invalid --jobs gets the same treatment as an invalid timeline: a
   clean message plus a usage line, exit 2. *)
let resolve_jobs ~subcommand = function
  | None -> Commit_par.Pool.default_jobs ()
  | Some n when n >= 1 ->
      (* stderr only: the summary/JSON on stdout must stay byte-identical
         for every --jobs value. *)
      let recommended = Domain.recommended_domain_count () in
      if n > recommended then
        Printf.eprintf
          "warning: --jobs %d exceeds Domain.recommended_domain_count () = \
           %d; the sweep clamps to %d executors (the summary is identical \
           either way)\n\
           %!"
          n recommended recommended;
      n
  | Some n ->
      Format.eprintf "invalid --jobs %d: need a positive domain count@." n;
      Format.eprintf "usage: tp_sim %s ... --jobs N   (N >= 1; default %d)@."
        subcommand
        (Commit_par.Pool.default_jobs ());
      exit 2

(* Time spans accept "200T" (units of T) or plain ticks. *)
let span =
  let parse s =
    let len = String.length s in
    let bad () = Error (`Msg (Printf.sprintf "bad time span %S" s)) in
    if len > 1 && (s.[len - 1] = 'T' || s.[len - 1] = 't') then
      match int_of_string_opt (String.sub s 0 (len - 1)) with
      | Some v -> Ok (`T v)
      | None -> bad ()
    else
      match int_of_string_opt s with Some v -> Ok (`Ticks v) | None -> bad ()
  in
  let print fmt = function
    | `T v -> Format.fprintf fmt "%dT" v
    | `Ticks v -> Format.fprintf fmt "%d" v
  in
  Arg.conv (parse, print)

(* SITE:DOWN is a crash-stop, SITE:DOWN..UP a crash-recover window.
   Parsed leniently here; Fault.validate applies the real checks once
   the horizon is known. *)
let crash_arg =
  let spec =
    let parse s =
      let bad () =
        Error
          (`Msg
             (Printf.sprintf "bad crash spec %S (want SITE:DOWN or SITE:DOWN..UP)"
                s))
      in
      match String.index_opt s ':' with
      | None -> bad ()
      | Some i -> (
          let window = String.sub s (i + 1) (String.length s - i - 1) in
          let wlen = String.length window in
          let rec dots j =
            if j + 1 >= wlen then None
            else if window.[j] = '.' && window.[j + 1] = '.' then Some j
            else dots (j + 1)
          in
          let down_s, up_s =
            match dots 0 with
            | None -> (window, None)
            | Some j ->
                ( String.sub window 0 j,
                  Some (String.sub window (j + 2) (wlen - j - 2)) )
          in
          match
            ( int_of_string_opt (String.sub s 0 i),
              int_of_string_opt down_s,
              Option.map int_of_string_opt up_s )
          with
          | Some site, Some down, None -> Ok (site, down, None)
          | Some site, Some down, Some (Some up) -> Ok (site, down, Some up)
          | _ -> bad ())
    in
    let print fmt (site, down, up) =
      match up with
      | None -> Format.fprintf fmt "%d:%d" site down
      | Some up -> Format.fprintf fmt "%d:%d..%d" site down up
    in
    Arg.conv (parse, print)
  in
  Arg.(
    value
    & opt (list spec) []
    & info [ "crash" ] ~docv:"SITE:DOWN[..UP]"
        ~doc:
          "Crash sites at given instants (e.g. 1:2500,3:4000). A \
           $(b,SITE:DOWN..UP) window crashes the site and recovers it at \
           $(b,UP): WAL replay, the paper's in-doubt rule, rejoin — \
           cluster and soak only.")

(* Crash-recover needs the cluster's durable stores and recovery rule;
   the single-transaction runner only models crash-stop. *)
let crash_stop_only ~subcommand specs =
  List.map
    (fun (site, down, up) ->
      match up with
      | None -> (Site_id.of_int site, Vtime.of_int down)
      | Some up ->
          Format.eprintf
            "--crash %d:%d..%d: crash-recover windows are a cluster/soak \
             feature; %s supports crash-stop SITE:DOWN only@."
            site down up subcommand;
          Format.eprintf "usage: tp_sim %s ... --crash SITE:DOWN@." subcommand;
          exit 2)
    specs

let spans_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "spans" ] ~docv:"FILE"
        ~doc:
          "Record causal spans and message flows, and write Chrome \
           trace_event JSON (Perfetto-loadable) to $(docv). The \
           companion causality DAG goes to $(docv) with a .causality.json \
           suffix. Spans are packed int records with coded message names \
           (rendered only at export), so recording is cheap enough to \
           leave on for any single run.")

(* Bad input surfaces as Invalid_argument from the library's own checks
   (Partition.make, Runner.run, Tm.run, Runtime.run, Soak.run): one line
   naming the problem on stderr, then exit 2. *)
let or_exit_2 what f =
  try f ()
  with Invalid_argument msg ->
    Format.eprintf "invalid %s: %s@." what msg;
    exit 2

(* Output files are opened before the run they record, so an unwritable
   path costs one line and exit 2, not the whole run and an exception.
   open_out_bin keeps the bytes on disk exactly the bytes emitted — the
   CI determinism gate cmp(1)s two runs. *)
let open_output path =
  try open_out_bin path
  with Sys_error msg ->
    Format.eprintf "cannot write output file: %s@." msg;
    exit 2

let write_output oc contents =
  output_string oc contents;
  close_out oc

let causality_path path =
  (if Filename.check_suffix path ".json" then Filename.chop_suffix path ".json"
   else path)
  ^ ".causality.json"

(* --spans FILE writes FILE and its .causality.json companion. *)
let open_span_files path =
  let events = open_output path in
  (events, open_output (causality_path path))

let write_span_files obs (events, causality) =
  write_output events (Obs.to_trace_event_json obs);
  write_output causality (Obs.to_causality_json obs)

let write_lines oc lines =
  List.iter
    (fun line ->
      output_string oc line;
      output_char oc '\n')
    lines;
  close_out oc

(* Satellite of the obs PR: the ring evicting entries used to be
   silent.  stderr only — stdout stays byte-identical. *)
let warn_dropped dropped =
  if dropped > 0 then
    Printf.eprintf
      "warning: trace ring dropped %d oldest entries (capacity exceeded); \
       the printed trace is a suffix of the run\n\
       %!"
      dropped

let make_config ~n ~t ~g2 ~at ~heal ~seed ~delay ~no_votes ~pessimistic =
  let t_unit = Vtime.of_int t in
  let base = Runner.default_config ~n ~t_unit () in
  let partition =
    match g2 with
    | [] -> Partition.none
    | sites ->
        let starts_at = Vtime.of_int (Option.value at ~default:0) in
        Partition.make
          ?heals_at:(Option.map (fun h -> Vtime.add starts_at (Vtime.of_int h)) heal)
          ~group2:(Site_id.set_of_ints sites) ~starts_at ~n ()
  in
  let delay =
    match delay with
    | `Minimal -> Delay.minimal
    | `Full -> Delay.full ~t_max:t_unit
    | `Uniform -> Delay.uniform ~t_max:t_unit
  in
  {
    base with
    Runner.partition;
    delay;
    seed;
    mode = (if pessimistic then Network.Pessimistic else Network.Optimistic);
    votes = List.map (fun s -> (Site_id.of_int s, false)) no_votes;
  }

let run_cmd =
  let doc = "Run one transaction under one scenario and print the trace." in
  let run protocol n t g2 at heal seed delay no_votes pessimistic quiet crashes
      spans =
    let span_files = Option.map open_span_files spans in
    let obs = match spans with Some _ -> Obs.create () | None -> Obs.disabled in
    let result =
      or_exit_2 "scenario" (fun () ->
          let config =
            make_config ~n ~t ~g2 ~at ~heal ~seed ~delay ~no_votes ~pessimistic
          in
          Runner.run ~obs protocol
            {
              config with
              Runner.trace_enabled = not quiet;
              crashes = crash_stop_only ~subcommand:"run" crashes;
            })
    in
    if not quiet then Format.printf "%a@." Trace.pp result.trace;
    Format.printf "%a" Runner.pp_result result;
    let verdict = Verdict.of_result result in
    Format.printf "verdict: %a@." Verdict.pp verdict;
    Option.iter (write_span_files obs) span_files;
    warn_dropped (Trace.dropped result.trace);
    if Verdict.resilient verdict then 0 else 1
  in
  Cmd.v
    (Cmd.info "run" ~doc)
    Term.(
      const run $ protocol_arg $ n_arg $ t_arg $ g2_arg $ at_arg $ heal_arg
      $ seed_arg $ delay_arg $ no_votes_arg $ pessimistic_arg $ quiet_arg
      $ crash_arg $ spans_arg)

let spans_cmd =
  let doc =
    "Run one scenario with span recording and print the trace_event JSON \
     (load it into ui.perfetto.dev or chrome://tracing)."
  in
  let format_arg =
    Arg.(
      value
      & opt
          (enum [ ("trace-event", `Trace_event); ("causality", `Causality) ])
          `Trace_event
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:
            "Output format: trace-event (Chrome/Perfetto timeline) or \
             causality (name-sorted span list + flow-edge DAG).")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Write the JSON to $(docv) instead of stdout.")
  in
  let run protocol n t g2 at heal seed delay no_votes pessimistic crashes
      format out =
    let out = Option.map open_output out in
    let obs = Obs.create () in
    or_exit_2 "scenario" (fun () ->
        let config =
          make_config ~n ~t ~g2 ~at ~heal ~seed ~delay ~no_votes ~pessimistic
        in
        ignore
          (Runner.run ~obs protocol
             {
               config with
               Runner.trace_enabled = false;
               crashes = crash_stop_only ~subcommand:"spans" crashes;
             }));
    let json =
      match format with
      | `Trace_event -> Obs.to_trace_event_json obs
      | `Causality -> Obs.to_causality_json obs
    in
    (match out with None -> print_string json | Some oc -> write_output oc json);
    0
  in
  Cmd.v
    (Cmd.info "spans" ~doc)
    Term.(
      const run $ protocol_arg $ n_arg $ t_arg $ g2_arg $ at_arg $ heal_arg
      $ seed_arg $ delay_arg $ no_votes_arg $ pessimistic_arg $ crash_arg
      $ format_arg $ out_arg)

let sweep_cmd =
  let doc =
    "Sweep a protocol over the default scenario grid, fanned across \
     $(b,--jobs) domains (the summary is identical for every jobs count)."
  in
  let heals_arg =
    Arg.(
      value & opt (list int) []
      & info [ "heals" ] ~docv:"TICKS"
          ~doc:"Also sweep transient partitions with these heal delays.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the summary as JSON.")
  in
  let run protocol n t heals grid_size json jobs =
    let jobs = resolve_jobs ~subcommand:"sweep" jobs in
    let t_unit = Vtime.of_int t in
    let base = Runner.default_config ~n ~t_unit () in
    let grid =
      match grid_size with
      | `Small -> Scenario.default_grid ~n ~t_unit
      | `Large -> Scenario.large_grid ~n ~t_unit
    in
    let grid =
      if heals = [] then grid
      else
        {
          grid with
          Scenario.heals_after =
            None :: List.map (fun h -> Some (Vtime.of_int h)) heals;
        }
    in
    let configs = Scenario.configs ~base grid in
    let summary = Sweep.run ~jobs protocol configs in
    if json then Format.printf "%a@." Export.pp (Export.of_summary summary)
    else Format.printf "%a@." Sweep.pp_summary summary;
    if summary.violations = 0 then 0 else 1
  in
  Cmd.v
    (Cmd.info "sweep" ~doc)
    Term.(
      const run $ protocol_arg $ n_arg $ t_arg $ heals_arg $ grid_arg
      $ json_arg $ jobs_arg)

let analyze_cmd =
  let doc = "Static FSA analysis: concurrency sets, Lemma 1/2, Rule(a)/(b)." in
  let name_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "p"; "protocol" ] ~docv:"NAME"
          ~doc:"FSA to analyse: 2pc, ext2pc, 3pc, 3pc-fig8, quorum3pc.")
  in
  let dot_arg =
    Arg.(
      value & flag
      & info [ "dot" ]
          ~doc:
            "Print the protocol as a Graphviz digraph instead (the paper's \
             figure).")
  in
  let run name n dot =
    match Commit_fsa.Catalog.find name with
    | None ->
        Format.eprintf "unknown FSA %S@." name;
        2
    | Some protocol when dot ->
        print_string (Commit_fsa.Machine.to_dot protocol);
        0
    | Some protocol ->
        let analysis = Commit_fsa.Analysis.analyze protocol ~n in
        Format.printf "%a@." Commit_fsa.Analysis.pp_report analysis;
        Format.printf "%a@." Commit_fsa.Augment.pp
          (Commit_fsa.Augment.apply_rules analysis);
        0
  in
  Cmd.v (Cmd.info "analyze" ~doc) Term.(const run $ name_arg $ n_arg $ dot_arg)

let cases_cmd =
  let doc = "Classify a scenario into the Section 6 case tree." in
  let run protocol n t g2 at heal seed delay =
    let config =
      make_config ~n ~t ~g2 ~at ~heal ~seed ~delay ~no_votes:[]
        ~pessimistic:false
    in
    let config = { config with Runner.trace_enabled = false } in
    let observation = Cases.observe protocol config in
    Format.printf "%a@." Cases.pp_observation observation;
    Format.printf "%a" Runner.pp_result observation.result;
    0
  in
  Cmd.v
    (Cmd.info "cases" ~doc)
    Term.(
      const run $ protocol_arg $ n_arg $ t_arg $ g2_arg $ at_arg $ heal_arg
      $ seed_arg $ delay_arg)

let diagram_cmd =
  let doc = "Render a scenario as an ASCII message-sequence diagram." in
  let run protocol n t g2 at heal seed delay no_votes crashes =
    let config =
      make_config ~n ~t ~g2 ~at ~heal ~seed ~delay ~no_votes
        ~pessimistic:false
    in
    let config =
      {
        config with
        Runner.trace_enabled = false;
        crashes = crash_stop_only ~subcommand:"diagram" crashes;
      }
    in
    print_string (Diagram.run protocol config);
    0
  in
  Cmd.v
    (Cmd.info "diagram" ~doc)
    Term.(
      const run $ protocol_arg $ n_arg $ t_arg $ g2_arg $ at_arg $ heal_arg
      $ seed_arg $ delay_arg $ no_votes_arg $ crash_arg)

let db_cmd =
  let doc = "Run a database workload through a commit protocol." in
  let workload_arg =
    Arg.(
      value
      & opt (enum [ ("bank", `Bank); ("hot-spot", `Hot); ("mix", `Mix) ]) `Bank
      & info [ "w"; "workload" ] ~docv:"KIND"
          ~doc:"Workload: bank, hot-spot, or mix.")
  in
  let txns_arg =
    Arg.(value & opt int 8 & info [ "txns" ] ~docv:"N" ~doc:"Transactions.")
  in
  let run protocol n t g2 at heal seed delay workload txns =
    let module Tm = Commit_db.Tm in
    let module Workload = Commit_db.Workload in
    let w, report =
      or_exit_2 "workload" (fun () ->
          let t_unit = Vtime.of_int t in
          let spacing = Vtime.of_int (6 * t) in
          let w =
            match workload with
            | `Bank ->
                Workload.bank_transfers ~n ~pairs:txns ~balance:1000 ~amount:70
                  ~spacing ~seed
            | `Hot -> Workload.hot_spot ~n ~txns ~spacing
            | `Mix ->
                Workload.uniform_mix ~n ~txns ~keys_per_txn:3
                  ~key_space:(2 * n) ~spacing ~seed
          in
          let partition =
            match g2 with
            | [] -> Partition.none
            | sites ->
                let starts_at = Vtime.of_int (Option.value at ~default:0) in
                Partition.make
                  ?heals_at:
                    (Option.map
                       (fun h -> Vtime.add starts_at (Vtime.of_int h))
                       heal)
                  ~group2:(Site_id.set_of_ints sites) ~starts_at ~n ()
          in
          let delay =
            match delay with
            | `Minimal -> Delay.minimal
            | `Full -> Delay.full ~t_max:t_unit
            | `Uniform -> Delay.uniform ~t_max:t_unit
          in
          let config =
            {
              (Tm.default_config ~protocol ~n ()) with
              Tm.t_unit;
              partition;
              delay;
              seed;
              initial = w.Workload.initial;
            }
          in
          (w, Tm.run config w.Workload.txns))
    in
    Format.printf "%a" Tm.pp_report report;
    (match workload with
    | `Bank ->
        Format.printf "money: %d on disk, %d expected@."
          (Commit_db.Txn_core.money ~prefix:"acct:" report.Tm.stores)
          (Workload.expected_total w ~prefix:"acct:")
    | `Hot | `Mix -> ());
    if Tm.count_status report Tm.Txn_torn = 0 then 0 else 1
  in
  Cmd.v
    (Cmd.info "db" ~doc)
    Term.(
      const run $ protocol_arg $ n_arg $ t_arg $ g2_arg $ at_arg $ heal_arg
      $ seed_arg $ delay_arg $ workload_arg $ txns_arg)

let check_cmd =
  let doc =
    "Self-check: run the paper's key claims on reduced grids and report \
     PASS/FAIL (a fast correctness gate for CI)."
  in
  let run () =
    let t_unit = Vtime.of_int 1000 in
    let failures = ref 0 in
    let verdict label ok =
      Format.printf "  %-58s %s@." label (if ok then "PASS" else "FAIL");
      if not ok then incr failures
    in
    let grid n =
      Scenario.configs
        ~base:(Runner.default_config ~n ~t_unit ())
        (Scenario.default_grid ~n ~t_unit)
    in
    let sweep p n = Sweep.run p (grid n) in
    Format.printf "self-check (reduced grids):@.";
    let s = sweep (module Termination.Static) 3 in
    verdict "Theorem 9: termination protocol resilient (n=3)"
      (s.violations = 0 && s.blocked_runs = 0);
    let s = sweep (module Termination.Transient) 3 in
    verdict "Section 6: transient variant resilient (n=3)"
      (s.violations = 0 && s.blocked_runs = 0);
    let s = sweep (module Theorem10.Four_phase_termination) 3 in
    verdict "Theorem 10: 4pc-termination resilient (n=3)"
      (s.violations = 0 && s.blocked_runs = 0);
    let s = sweep (module Ext_two_phase) 3 in
    verdict "Section 3 obs. 1: ext2pc violates for n=3" (s.violations > 0);
    let s = sweep (module Three_phase_rules.Paper) 3 in
    verdict "Section 3 obs. 2: 3pc+rules violates" (s.violations > 0);
    let s = sweep (module Two_phase) 3 in
    verdict "Fig. 1: 2pc blocks but stays atomic"
      (s.violations = 0 && s.blocked_runs > 0);
    let s = sweep (module Quorum) 3 in
    verdict "Ref [5]: quorum atomic, blocks the minority"
      (s.violations = 0 && s.blocked_runs > 0);
    let s = sweep Paxos_commit.protocol 3 in
    verdict "Paxos Commit: atomic under partition (minority may block)"
      (s.violations = 0);
    let crash_grid n =
      Scenario.configs
        ~base:(Runner.default_config ~n ~t_unit ())
        (Scenario.master_crash_grid ~t_unit)
    in
    let crash_sweep p n = Sweep.run p (crash_grid n) in
    let spx = crash_sweep Paxos_commit.protocol 3 in
    verdict "Paxos Commit (F=1): resilient to master crash"
      (spx.violations = 0 && spx.blocked_runs = 0);
    let s = crash_sweep Paxos_commit.protocol_f0 3 in
    verdict "Paxos F=0 degenerates to 2PC: master crash blocks"
      (s.violations = 0 && s.blocked_runs > 0);
    let s = crash_sweep (module Termination.Transient) 3 in
    verdict "termination protocol outlived by Paxos on master crash"
      (s.violations = 0 && s.committed < spx.committed);
    let majorities_ok =
      List.for_all
        (fun cfg ->
          let tap, events = Paxos_check.collecting_tap () in
          let result = Runner.run ~tap Paxos_commit.protocol cfg in
          match Paxos_check.audit ~f:1 result (events ()) with
          | Ok _ -> true
          | Error problems ->
              List.iter
                (fun p -> Format.eprintf "    %a@." Paxos_check.pp_problem p)
                problems;
              false)
        (grid 3 @ crash_grid 3)
    in
    verdict "Paxos: every commit backed by acceptor majorities" majorities_ok;
    let facts_ok =
      List.for_all
        (fun cfg ->
          Facts.audit (Runner.run (module Termination.Static) cfg) = Ok ())
        (grid 3)
    in
    verdict "FACT 1/2: every decision through an admissible case" facts_ok;
    let lemmas =
      match Commit_fsa.Catalog.find "3pc" with
      | Some p ->
          Commit_fsa.Analysis.satisfies_lemmas
            (Commit_fsa.Analysis.analyze p ~n:3)
      | None -> false
    in
    verdict "Lemma 1/2: 3pc qualifies (FSA analysis)" lemmas;
    Format.printf "%s@."
      (if !failures = 0 then "all checks passed"
       else Printf.sprintf "%d check(s) FAILED" !failures);
    if !failures = 0 then 0 else 1
  in
  Cmd.v (Cmd.info "check" ~doc) Term.(const run $ const ())

let lemma3_cmd =
  let doc =
    "Exhaustively execute every timeout/UD augmentation of 3PC (Lemma 3)."
  in
  let run () =
    let t_unit = Vtime.of_int 1000 in
    let fsa = Commit_fsa.Catalog.three_phase in
    let assignments = Fsa_actor.all_assignments fsa in
    Format.printf "%d assignments to execute...@." (List.length assignments);
    let grid =
      Scenario.configs
        ~base:(Runner.default_config ~n:3 ~t_unit ())
        (Scenario.default_grid ~n:3 ~t_unit)
    in
    (* Stage 2 for anything that survives stage 1: correctness on the
       failure-free and vote flows, and the n=4 ack-splitting cuts. *)
    let base4 = Runner.default_config ~n:4 ~t_unit () in
    let full = Delay.full ~t_max:t_unit in
    let stage2 =
      { (Runner.default_config ~n:3 ~t_unit ()) with Runner.delay = full }
      :: {
           (Runner.default_config ~n:3 ~t_unit ()) with
           Runner.delay = full;
           votes = [ (Site_id.of_int 2, false) ];
         }
      :: List.map
           (fun at ->
             {
               base4 with
               Runner.partition =
                 Partition.make
                   ~group2:(Site_id.set_of_ints [ 3; 4 ])
                   ~starts_at:(Vtime.of_int at) ~n:4 ();
               delay = full;
             })
           [ 3050; 4050 ]
      @ (* a no-voter cut off from the rest: the kill shot for the
           "commit on any trouble" assignments *)
      List.map
        (fun at ->
          {
            (Runner.default_config ~n:3 ~t_unit ()) with
            Runner.partition =
              Partition.make
                ~group2:(Site_id.set_of_ints [ 3 ])
                ~starts_at:(Vtime.of_int at) ~n:3 ();
            delay = full;
            votes = [ (Site_id.of_int 3, false) ];
          })
        [ 100; 1100; 2100 ]
    in
    let sound a =
      let proto = Fsa_actor.make ~name:"candidate" fsa a in
      List.for_all
        (fun cfg ->
          Verdict.resilient (Verdict.of_result (Runner.run proto cfg)))
        grid
      && List.for_all
           (fun (cfg : Runner.config) ->
             let result = Runner.run proto cfg in
             let v = Verdict.of_result result in
             Verdict.resilient v
             && (Partition.group_count cfg.partition > 0
                || Verdict.outcome v
                   = (if cfg.votes = [] then `Committed else `Aborted)))
           stage2
    in
    let survivors = List.filter sound assignments in
    Format.printf
      "assignments that are resilient AND correct: %d (Lemma 3 predicts 0)@."
      (List.length survivors);
    if survivors = [] then 0 else 1
  in
  Cmd.v (Cmd.info "lemma3" ~doc) Term.(const run $ const ())

(* Unlike the single-scenario runner, cluster/soak default to the
   paper's protocol instead of requiring --protocol. *)
let cluster_protocol_arg =
  Arg.(
    value
    & opt (enum protocols) (module Termination.Transient : Site.S)
    & info [ "p"; "protocol" ] ~docv:"PROTOCOL"
        ~doc:"Protocol to run (default: termination-transient).")

let cluster_cmd =
  let module Cluster = Commit_cluster in
  let doc =
    "Keep a cluster alive under load while a partition timeline plays out. \
     With $(b,--seeds), fan one independent runtime per seed (x policies \
     with $(b,--all-policies)) across $(b,--jobs) domains and merge the \
     metrics exactly."
  in
  let duration_arg =
    Arg.(
      value & opt span (`T 200)
      & info [ "duration" ] ~docv:"SPAN" ~doc:"Arrival window (e.g. 200T).")
  in
  let drain_arg =
    Arg.(
      value & opt span (`T 30)
      & info [ "drain" ] ~docv:"SPAN"
          ~doc:"Extra run time for in-flight transactions after arrivals stop.")
  in
  let load_arg =
    Arg.(
      value & opt int 50
      & info [ "load" ] ~docv:"TXNS" ~doc:"Offered transactions per 100T.")
  in
  let cut_arg =
    Arg.(
      value & opt (list span) []
      & info [ "cut" ] ~docv:"SPANS"
          ~doc:"Partition onset instants (e.g. 40T,300T).")
  in
  let cluster_heal_arg =
    Arg.(
      value & opt (list span) []
      & info [ "heal" ] ~docv:"SPANS"
          ~doc:
            "Heal instants, paired with $(b,--cut) in order; a missing last \
             heal leaves the final cut permanent.")
  in
  let window_arg =
    Arg.(
      value & opt int 8
      & info [ "window" ] ~docv:"N" ~doc:"Max concurrent transactions.")
  in
  let queue_limit_arg =
    Arg.(
      value & opt (some int) (Some 64)
      & info [ "queue-limit" ] ~docv:"N" ~doc:"Admission queue bound.")
  in
  let policy_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("fixed", Cluster.Scheduler.Fixed_master);
               ("round-robin", Cluster.Scheduler.Round_robin);
               ("partition-aware", Cluster.Scheduler.Partition_aware);
             ])
          Cluster.Scheduler.Partition_aware
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:"Master placement: fixed, round-robin, partition-aware.")
  in
  let pause_arg =
    Arg.(
      value & flag
      & info [ "pause-during-cut" ]
          ~doc:"Defer all admissions while a partition is active.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")
  in
  let seeds_arg =
    Arg.(
      value & opt (list int64) []
      & info [ "seeds" ] ~docv:"SEEDS"
          ~doc:
            "Sweep these seeds (e.g. 1,2,3) instead of running the single \
             $(b,--seed) scenario: one independent runtime per grid point, \
             merged into one summary.")
  in
  let all_policies_arg =
    Arg.(
      value & flag
      & info [ "all-policies" ]
          ~doc:
            "With $(b,--seeds): sweep all three placement policies instead \
             of just $(b,--policy).")
  in
  let metrics_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Stream windowed telemetry snapshots to $(docv) as JSONL: one \
             record per $(b,--metrics-every) window plus a final horizon \
             cut. The stream is byte-identical across invocations and \
             $(b,--jobs) values, and the windows merge exactly to the \
             end-of-run metrics. Render with $(b,tp_sim metrics) $(docv).")
  in
  let metrics_every_arg =
    Arg.(
      value & opt span (`T 50)
      & info [ "metrics-every" ] ~docv:"SPAN"
          ~doc:"Snapshot window width (e.g. 50T, or plain ticks).")
  in
  let profile_arg =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Attribute host wall-time to subsystem buckets (engine, \
             network, protocol, lock-manager, auditor) and print the \
             breakdown to stderr. Wall-clock readings are inherently \
             nondeterministic, so they never touch stdout or any JSON.")
  in
  let run protocol n t g2 cuts heals seed delay pessimistic duration drain load
      window queue_limit policy pause crashes json quiet seeds all_policies
      grid_size jobs spans metrics_out metrics_every profile =
    let t_unit = Vtime.of_int t in
    let resolve = function
      | `T v -> Vtime.of_int (v * t)
      | `Ticks v -> Vtime.of_int v
    in
    if List.length heals > List.length cuts then begin
      Format.eprintf "more --heal instants than --cut instants@.";
      exit 2
    end;
    let g2 = match g2 with [] -> [ n ] | sites -> sites in
    let timeline =
      or_exit_2 "partition timeline" @@ fun () ->
        match cuts with
        | [] -> Partition.none
        | cuts ->
            let heals =
              List.map (fun h -> Some (resolve h)) heals
              @ List.init
                  (List.length cuts - List.length heals)
                  (fun _ -> None)
            in
            Partition.sequence
              (List.map2
                 (fun cut heal ->
                   Partition.make ?heals_at:heal
                     ~group2:(Site_id.set_of_ints g2) ~starts_at:(resolve cut)
                     ~n ())
                 cuts heals)
    in
    let delay =
      match delay with
      | `Minimal -> Delay.minimal
      | `Full -> Delay.full ~t_max:t_unit
      | `Uniform -> Delay.uniform ~t_max:t_unit
    in
    (* Crash-recover windows are validated against the full run extent:
       a recover instant past the horizon could never fire. *)
    let fault_specs =
      List.map
        (fun (site, down, up) -> { Cluster.Fault.site; down; up })
        crashes
    in
    let horizon =
      Vtime.to_int (Vtime.add (resolve duration) (resolve drain))
    in
    (match Cluster.Fault.validate ~n ~horizon fault_specs with
    | Ok () -> ()
    | Error msg ->
        Format.eprintf "invalid --crash schedule: %s@." msg;
        Format.eprintf
          "usage: tp_sim cluster ... --crash SITE:DOWN[..UP][,...]   \
           (instants in ticks, before the horizon; UP > DOWN)@.";
        exit 2);
    let cl_crashes, cl_recoveries = Cluster.Fault.split fault_specs in
    let config =
      {
        (Cluster.Runtime.default_config ~protocol ~n ()) with
        Cluster.Runtime.t_unit;
        mode = (if pessimistic then Network.Pessimistic else Network.Optimistic);
        timeline;
        delay;
        seed;
        duration = resolve duration;
        drain = resolve drain;
        load;
        window;
        queue_limit;
        policy;
        pause_during_cut = pause;
        crashes = cl_crashes;
        recoveries = cl_recoveries;
        snapshot_every =
          (match metrics_out with
          | Some _ -> Some (resolve metrics_every)
          | None -> None);
        profile;
      }
    in
    (* --grid large turns the cluster run into a sweep even without
       --seeds: seeds 1..8, every policy, and a no-partition baseline
       timeline alongside the requested one. *)
    let seeds =
      match (seeds, grid_size) with
      | [], `Large -> List.init 8 (fun i -> Int64.of_int (i + 1))
      | seeds, _ -> seeds
    in
    match seeds with
    | [] ->
        let span_files = Option.map open_span_files spans in
        let metrics_file = Option.map open_output metrics_out in
        let obs =
          match spans with Some _ -> Obs.create () | None -> Obs.disabled
        in
        let report =
          or_exit_2 "cluster config" (fun () -> Cluster.Runtime.run ~obs config)
        in
        if json then
          Format.printf "%a@." Export.pp (Cluster.Runtime.to_json report)
        else begin
          Format.printf "%a" Cluster.Runtime.pp_report report;
          if not quiet then
            Format.printf "%a" Cluster.Runtime.pp_timeline report
        end;
        Option.iter (write_span_files obs) span_files;
        Option.iter
          (fun oc ->
            write_lines oc
              (List.map
                 (fun snap ->
                   Export.to_string
                     (Cluster.Metrics.snapshot_to_json
                        report.Cluster.Runtime.metrics snap))
                 report.Cluster.Runtime.snapshots))
          metrics_file;
        (* stderr: wall-clock attribution must never contaminate the
           deterministic stdout/JSON surface. *)
        (match report.Cluster.Runtime.profile with
        | Some p -> Format.eprintf "%a@?" Prof.pp p
        | None -> ());
        warn_dropped report.Cluster.Runtime.trace_dropped;
        if Cluster.Runtime.atomic report && report.Cluster.Runtime.blocked = 0
        then 0
        else 1
    | seeds ->
        if spans <> None then begin
          Format.eprintf
            "--spans records one runtime; drop --seeds (or pick one seed \
             with --seed) to export spans@.";
          exit 2
        end;
        if profile then begin
          Format.eprintf
            "--profile times one runtime on the host clock; drop --seeds \
             (or pick one seed with --seed) to profile@.";
          exit 2
        end;
        let jobs = resolve_jobs ~subcommand:"cluster" jobs in
        let metrics_file = Option.map open_output metrics_out in
        let requested = (Format.asprintf "%a" Partition.pp timeline, timeline) in
        let grid =
          {
            Cluster.Cluster_sweep.base = config;
            seeds;
            timelines =
              (match grid_size with
              | `Small -> [ requested ]
              | `Large ->
                  if cuts = [] then [ requested ]
                  else [ ("none", Partition.none); requested ]);
            policies =
              (if all_policies || grid_size = `Large then
                 Cluster.Scheduler.
                   [ Fixed_master; Round_robin; Partition_aware ]
               else [ policy ]);
            protocols = [];
            faults = [];
          }
        in
        let summary =
          or_exit_2 "cluster sweep" (fun () -> Cluster.Cluster_sweep.run ~jobs grid)
        in
        Option.iter
          (fun oc -> write_lines oc summary.Cluster.Cluster_sweep.snapshot_lines)
          metrics_file;
        if json then
          Format.printf "%a@." Export.pp
            (Cluster.Cluster_sweep.to_json summary)
        else Format.printf "%a" Cluster.Cluster_sweep.pp_summary summary;
        if Cluster.Cluster_sweep.clean summary then 0 else 1
  in
  Cmd.v
    (Cmd.info "cluster" ~doc)
    Term.(
      const run $ cluster_protocol_arg $ n_arg $ t_arg $ g2_arg $ cut_arg
      $ cluster_heal_arg $ seed_arg $ delay_arg $ pessimistic_arg
      $ duration_arg $ drain_arg $ load_arg $ window_arg $ queue_limit_arg
      $ policy_arg $ pause_arg $ crash_arg $ json_arg $ quiet_arg $ seeds_arg
      $ all_policies_arg $ grid_arg $ jobs_arg $ spans_arg $ metrics_arg
      $ metrics_every_arg $ profile_arg)

let soak_cmd =
  let module Cluster = Commit_cluster in
  let doc =
    "Soak the cluster: millions of ticks under a seed-derived randomized \
     fault schedule (partition cut/heal, crash-recover windows, \
     delay-model jitter). Deterministic: the summary and every output \
     file are byte-identical per seed across invocations and \
     $(b,--jobs) values."
  in
  let epochs_arg =
    Arg.(
      value & opt int 16
      & info [ "epochs" ] ~docv:"N"
          ~doc:
            "Independent epochs; each derives its workload seed and fault \
             plan from ($(b,--seed), epoch) alone, so epochs fan across \
             $(b,--jobs) domains and merge in index order.")
  in
  let segment_arg =
    Arg.(
      value & opt span (`T 200)
      & info [ "segment" ] ~docv:"SPAN"
          ~doc:"Arrival window per epoch (e.g. 200T; min 10T).")
  in
  let fault_free_arg =
    Arg.(
      value & flag
      & info [ "fault-free" ]
          ~doc:
            "Disable fault injection. The fault plan is still drawn (and \
             discarded), so the workload seeds match the faulted soak \
             exactly — the bench's baseline leg.")
  in
  let load_arg =
    Arg.(
      value & opt int 50
      & info [ "load" ] ~docv:"TXNS" ~doc:"Offered transactions per 100T.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the summary as JSON.")
  in
  let metrics_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Stream windowed telemetry snapshots to $(docv) as JSONL, each \
             record tagged with its epoch; byte-identical across \
             invocations and $(b,--jobs). Render with $(b,tp_sim metrics) \
             $(docv).")
  in
  let metrics_every_arg =
    Arg.(
      value & opt span (`T 50)
      & info [ "metrics-every" ] ~docv:"SPAN"
          ~doc:"Snapshot window width (e.g. 50T, or plain ticks).")
  in
  let run protocol n t seed delay pessimistic epochs segment load fault_free
      json jobs metrics_out metrics_every =
    let t_unit = Vtime.of_int t in
    let resolve = function
      | `T v -> Vtime.of_int (v * t)
      | `Ticks v -> Vtime.of_int v
    in
    let delay =
      match delay with
      | `Minimal -> Delay.minimal
      | `Full -> Delay.full ~t_max:t_unit
      | `Uniform -> Delay.uniform ~t_max:t_unit
    in
    let base =
      {
        (Cluster.Runtime.default_config ~protocol ~n ()) with
        Cluster.Runtime.t_unit;
        mode = (if pessimistic then Network.Pessimistic else Network.Optimistic);
        delay;
        load;
        snapshot_every =
          (match metrics_out with
          | Some _ -> Some (resolve metrics_every)
          | None -> None);
      }
    in
    let config =
      {
        Cluster.Soak.base;
        seed;
        epochs;
        segment = resolve segment;
        faults = not fault_free;
      }
    in
    let jobs = resolve_jobs ~subcommand:"soak" jobs in
    let metrics_file = Option.map open_output metrics_out in
    let summary = or_exit_2 "soak config" (fun () -> Cluster.Soak.run ~jobs config) in
    Option.iter
      (fun oc -> write_lines oc summary.Cluster.Soak.snapshot_lines)
      metrics_file;
    if json then
      Format.printf "%a@." Export.pp (Cluster.Soak.to_json config summary)
    else Format.printf "%a" Cluster.Soak.pp_summary (config, summary);
    if Cluster.Soak.conserved summary then 0 else 1
  in
  Cmd.v
    (Cmd.info "soak" ~doc)
    Term.(
      const run $ cluster_protocol_arg $ n_arg $ t_arg $ seed_arg $ delay_arg
      $ pessimistic_arg $ epochs_arg $ segment_arg $ load_arg $ fault_free_arg
      $ json_arg $ jobs_arg $ metrics_arg $ metrics_every_arg)

let metrics_cmd =
  let doc =
    "Render a telemetry snapshot stream (the JSONL written by $(b,tp_sim \
     cluster --metrics)) as a per-window timeline table."
  in
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Snapshot stream (JSONL), one record per line.")
  in
  let run file =
    let ic = open_in_bin file in
    let lines = ref [] in
    (try
       while true do
         let line = input_line ic in
         if String.trim line <> "" then lines := line :: !lines
       done
     with End_of_file -> ());
    close_in ic;
    let records =
      List.mapi
        (fun i line ->
          match Export.of_string line with
          | Ok json -> json
          | Error msg ->
              Format.eprintf "%s:%d: %s@." file (i + 1) msg;
              exit 2)
        (List.rev !lines)
    in
    if records = [] then begin
      Format.eprintf "%s: empty snapshot stream@." file;
      exit 2
    end;
    let int_field json key =
      match Export.member key json with
      | Some (Export.Int i) -> Some i
      | _ -> None
    in
    let nested json outer key =
      Option.bind (Export.member outer json) (Export.member key)
    in
    let sub_int json outer key =
      match nested json outer key with Some (Export.Int i) -> i | _ -> 0
    in
    let header () =
      Format.printf "  %-17s %5s %5s %5s %5s %5s  %5s %5s %5s %5s %5s  %s@."
        "window(T)" "off" "cmt" "abt" "trm" "rej" "infl" "queue" "blkd"
        "sites" "parts" "commit p50/p99(T)"
    in
    let last_run = ref (Some "\000") in
    List.iter
      (fun json ->
        let run_label =
          match Export.member "run" json with
          | Some (Export.String s) -> Some s
          | _ -> None
        in
        if run_label <> !last_run then begin
          (match run_label with
          | Some r -> Format.printf "run %s@." r
          | None -> ());
          last_run := run_label;
          header ()
        end;
        let t_unit =
          match int_field json "t_unit" with
          | Some t when t > 0 -> t
          | _ -> 1
        in
        let in_t ticks = float_of_int ticks /. float_of_int t_unit in
        let since = Option.value (int_field json "since") ~default:0 in
        let upto = Option.value (int_field json "upto") ~default:0 in
        let final =
          match Export.member "final" json with
          | Some (Export.Bool b) -> b
          | _ -> false
        in
        let window =
          Format.asprintf "%g-%g%s" (in_t since) (in_t upto)
            (if final then " fin" else "")
        in
        let latency =
          match nested json "histograms" "latency.commit" with
          | Some h -> (
              match (Export.member "p50" h, Export.member "p99" h) with
              | Some (Export.Int p50), Some (Export.Int p99) ->
                  Format.asprintf "%.1f/%.1f" (in_t p50) (in_t p99)
              | _ -> "-")
          | _ -> "-"
        in
        Format.printf
          "  %-17s %5d %5d %5d %5d %5d  %5d %5d %5d %5d %5d  %s@." window
          (sub_int json "counters" "txn.offered")
          (sub_int json "counters" "txn.committed")
          (sub_int json "counters" "txn.aborted")
          (sub_int json "counters" "txn.termination")
          (sub_int json "counters" "txn.rejected")
          (sub_int json "gauges" "gauge.in_flight")
          (sub_int json "gauges" "gauge.queued")
          (sub_int json "gauges" "gauge.blocked")
          (sub_int json "gauges" "gauge.live_sites")
          (sub_int json "gauges" "gauge.partition_components")
          latency)
      records;
    0
  in
  Cmd.v (Cmd.info "metrics" ~doc) Term.(const run $ file_arg)

let list_cmd =
  let doc = "List available protocols and subcommands." in
  let run () =
    Format.printf "protocols (lib/checker/registry.ml):@.";
    List.iter
      (fun { Registry.name; summary; protocol = (module P : Site.S) } ->
        Format.printf "  %-22s %s %s@." name
          (if P.blocking_by_design then "(blocks under partition)"
           else "(nonblocking)          ")
          summary)
      Registry.all;
    Format.printf "subcommands:@.";
    List.iter
      (fun (name, doc) -> Format.printf "  %-10s %s@." name doc)
      [
        ("analyze", "static FSA analysis (concurrency sets, lemmas, rules)");
        ("cases", "Section 6 case classification for a transient scenario");
        ("check", "self-check of the paper's key claims (CI gate)");
        ( "cluster",
          "long-running cluster under a partition timeline (--seeds + \
           --jobs: parallel sweep)" );
        ("db", "a database workload through a commit protocol");
        ("diagram", "ASCII message-sequence diagram of one scenario");
        ("lemma3", "exhaustive Lemma 3 augmentation search");
        ("list", "this listing");
        ( "metrics",
          "render a telemetry snapshot stream (cluster --metrics) as a table"
        );
        ("run", "one scenario, full trace");
        ( "soak",
          "millions of ticks under a seed-derived fault schedule (--jobs \
           fans epochs)" );
        ("spans", "one scenario as Perfetto-loadable span/flow JSON");
        ("sweep", "a protocol over the default scenario grid (--jobs N)");
      ];
    Format.printf
      "sweeping subcommands take --jobs N (worker domains, default %d \
       here);@."
      (Commit_par.Pool.default_jobs ());
    Format.printf "the summary is byte-identical for every N.@.";
    0
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let () =
  let doc = "Termination protocol for simple network partitioning (ICDE 1987)" in
  let info = Cmd.info "tp_sim" ~doc in
  exit (Cmd.eval' (Cmd.group info
       [
         analyze_cmd;
         cases_cmd;
         check_cmd;
         cluster_cmd;
         db_cmd;
         diagram_cmd;
         lemma3_cmd;
         list_cmd;
         metrics_cmd;
         run_cmd;
         soak_cmd;
         spans_cmd;
         sweep_cmd;
       ]))
