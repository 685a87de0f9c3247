(* Tests for the parallel fold (lib/par) and the determinism guarantee
   of the sweeps built on it: for any [jobs], the merged
   summary — and its JSON export — is byte-identical to the sequential
   fold. *)

module Pool = Commit_par.Pool
module Cluster = Commit_cluster

let check = Alcotest.check

let t_unit = Vtime.of_int 1000

let t mult = Vtime.of_int (mult * 1000)

(* ------------------------------------------------------------------ *)
(* Folds                                                               *)
(* ------------------------------------------------------------------ *)

let unit_scratch () = ()

let fold_chunks ~domains ~chunk ~f ~merge xs =
  Pool.fold_chunks ~domains ~chunk ~init:unit_scratch
    ~f:(fun () x -> f x)
    ~merge xs

let test_fold_matches_left_fold () =
  check Alcotest.bool "default_jobs >= 1" true (Pool.default_jobs () >= 1);
  let input = List.init 37 (fun i -> string_of_int (i * i)) in
  let expected = String.concat "," input in
  List.iter
    (fun jobs ->
      check Alcotest.string
        (Printf.sprintf "jobs=%d" jobs)
        expected
        (Pool.fold ~jobs ~init:unit_scratch
           ~f:(fun () x -> x)
           ~merge:(fun a b -> a ^ "," ^ b)
           input))
    [ 1; 2; 4; 8 ]

let raises_invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

let test_fold_bad_input_raises () =
  let sum ~domains ~chunk xs =
    fold_chunks ~domains ~chunk ~f:Fun.id ~merge:( + ) xs
  in
  check Alcotest.bool "empty input rejected" true
    (raises_invalid (fun () -> sum ~domains:2 ~chunk:4 [||]));
  check Alcotest.bool "chunk < 1 rejected" true
    (raises_invalid (fun () -> sum ~domains:2 ~chunk:0 [| 1 |]));
  check Alcotest.bool "domains < 1 rejected" true
    (raises_invalid (fun () -> sum ~domains:0 ~chunk:1 [| 1 |]));
  let fold ~jobs xs =
    Pool.fold ~jobs ~init:unit_scratch ~f:(fun () x -> x) ~merge:( + ) xs
  in
  check Alcotest.bool "fold: empty input rejected" true
    (raises_invalid (fun () -> fold ~jobs:2 []));
  check Alcotest.bool "fold: jobs < 1 rejected" true
    (raises_invalid (fun () -> fold ~jobs:0 [ 1 ]))

let test_chunk_larger_than_input () =
  let input = Array.init 5 (fun i -> i + 1) in
  check Alcotest.int "one chunk still reduces" 15
    (fold_chunks ~domains:4 ~chunk:100 ~f:Fun.id ~merge:( + ) input)

let test_fold_merge_ordered () =
  (* A non-commutative merge (string concat) exposes any ordering bug:
     chunks must fold left-to-right regardless of which domain finishes
     first. *)
  let input = Array.init 26 (fun i -> String.make 1 (Char.chr (65 + i))) in
  for chunk = 1 to 100 do
    check Alcotest.string
      (Printf.sprintf "chunk=%d keeps order" chunk)
      "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
      (fold_chunks ~domains:3 ~chunk ~f:Fun.id ~merge:( ^ ) input)
  done

exception Boom of int

let test_fold_exception_propagation () =
  let input = Array.init 20 Fun.id in
  let observed =
    try
      ignore
        (fold_chunks ~domains:2 ~chunk:3
           ~f:(fun x -> if x >= 7 then raise (Boom x) else x)
           ~merge:( + ) input);
      None
    with Boom x -> Some x
  in
  (* elements 7..19 all raise; the lowest-indexed chunk's exception
     (element 7, chunk [6;7;8]) is the one re-raised *)
  check Alcotest.(option int) "first failing chunk wins" (Some 7) observed

(* The caller is an executor: with two one-item chunks, whichever
   executor claims chunk 0 waits for chunk 1 to finish elsewhere, so
   the caller must claim a chunk before it joins the worker. *)
let test_fold_caller_executes () =
  let second_done = Atomic.make false and gave_up = Atomic.make false in
  let ran_on = Array.make 2 (-1) in
  Pool.fold_chunks ~domains:2 ~chunk:1 ~init:unit_scratch
    ~f:(fun () i ->
      ran_on.(i) <- (Domain.self () :> int);
      if i = 1 then Atomic.set second_done true
      else begin
        let deadline = Sys.time () +. 10. in
        while (not (Atomic.get second_done)) && not (Atomic.get gave_up) do
          if Sys.time () > deadline then Atomic.set gave_up true;
          Domain.cpu_relax ()
        done
      end)
    ~merge:(fun () () -> ())
    [| 0; 1 |];
  check Alcotest.bool "chunk 1 ran while chunk 0 waited" false
    (Atomic.get gave_up);
  check Alcotest.bool "the caller ran a chunk" true
    (Array.mem (Domain.self () :> int) ran_on)

let test_fold_scratch_per_domain () =
  let domains = 3 in
  let created = Atomic.make 0 in
  let input = Array.init 48 Fun.id in
  let users = Array.make (Array.length input) (-1, -1) in
  let sum =
    Pool.fold_chunks ~domains ~chunk:2
      ~init:(fun () -> Atomic.fetch_and_add created 1)
      ~f:(fun scratch_id x ->
        users.(x) <- (scratch_id, (Domain.self () :> int));
        x)
      ~merge:( + ) input
  in
  check Alcotest.int "reduction unchanged by scratch" 1128 sum;
  check Alcotest.int "init called exactly (domains) times" domains
    (Atomic.get created);
  (* a scratch value is never shared: each scratch id maps to exactly
     one domain across the whole fold *)
  let domain_of = Hashtbl.create 8 in
  Array.iter
    (fun (scratch_id, domain) ->
      check Alcotest.bool "every element saw a scratch" true (scratch_id >= 0);
      match Hashtbl.find_opt domain_of scratch_id with
      | None -> Hashtbl.add domain_of scratch_id domain
      | Some d -> check Alcotest.int "scratch never crosses domains" d domain)
    users

(* ------------------------------------------------------------------ *)
(* Sweep determinism across jobs                                       *)
(* ------------------------------------------------------------------ *)

let sweep_grid () =
  let base =
    { (Runner.default_config ~n:3 ~t_unit ()) with Runner.trace_enabled = false }
  in
  Scenario.configs ~base (Scenario.default_grid ~n:3 ~t_unit)

let test_sweep_jobs_deterministic () =
  let grid = sweep_grid () in
  let export s = Export.to_string (Export.of_summary s) in
  let sequential = export (Sweep.run (module Termination.Static) grid) in
  List.iter
    (fun jobs ->
      let parallel = export (Sweep.run ~jobs (module Termination.Static) grid) in
      check Alcotest.string
        (Printf.sprintf "jobs=%d = sequential" jobs)
        sequential parallel)
    [ 1; 2; 4; 8 ]

(* Scratch reuse must be invisible: a run on a reused engine is
   identical to a run on a fresh one, whatever ran on the scratch
   before. *)
let test_runner_scratch_invisible () =
  let configs = sweep_grid () in
  let sample = List.filteri (fun i _ -> i mod 97 = 0) configs in
  let scratch = Runner.make_scratch () in
  List.iter
    (fun config ->
      let fresh = Runner.run (module Termination.Static) config in
      let reused = Runner.run ~scratch (module Termination.Static) config in
      check Alcotest.string
        (Scenario.config_id config)
        (Format.asprintf "%a" Runner.pp_result fresh)
        (Format.asprintf "%a" Runner.pp_result reused);
      check Alcotest.int "events_run identical" fresh.Runner.events_run
        reused.Runner.events_run)
    sample

(* The qcheck property behind the determinism guarantee: for ANY chunk
   size, ANY executor count and ANY permutation of the grid, the
   batched parallel fold is byte-identical to the sequential fold over
   the same permutation. *)
let shuffled ~seed arr =
  let st = Random.State.make [| seed |] in
  let a = Array.copy arr in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  a

(* The reference the properties compare against: one scratch and a
   plain left fold in array order. *)
let left_fold ~init ~f ~merge xs =
  let scratch = init () in
  match Array.to_list xs with
  | [] -> assert false
  | first :: rest ->
      List.fold_left
        (fun acc x -> merge acc (f scratch x))
        (f scratch first) rest

let chunk_jobs_perm = QCheck.(triple (int_range 1 4) (int_range 1 9) small_nat)

let qcheck_sweep_batched_identical =
  QCheck.Test.make ~count:8
    ~name:"checker sweep byte-identical across chunk x jobs x permutation"
    chunk_jobs_perm
    (fun (domains, chunk, perm_seed) ->
      let configs = shuffled ~seed:perm_seed (Array.of_list (sweep_grid ())) in
      let eval scratch config =
        Sweep.of_verdict ~protocol:"termination-static"
          ( config,
            Verdict.of_result
              (Runner.run ~scratch (module Termination.Static) config) )
      in
      let merge = Sweep.merge ~keep:3 in
      let sequential =
        left_fold ~init:Runner.make_scratch ~f:eval ~merge configs
      in
      let batched =
        Pool.fold_chunks ~domains ~chunk ~init:Runner.make_scratch ~f:eval
          ~merge configs
      in
      String.equal
        (Export.to_string (Export.of_summary sequential))
        (Export.to_string (Export.of_summary batched)))

let test_sweep_jobs_rejects_zero () =
  let raised =
    try
      ignore (Sweep.run ~jobs:0 (module Termination.Static) (sweep_grid ()));
      false
    with Invalid_argument _ -> true
  in
  check Alcotest.bool "jobs=0 rejected" true raised

(* ------------------------------------------------------------------ *)
(* Cluster-sweep determinism across jobs                               *)
(* ------------------------------------------------------------------ *)

let cluster_grid () =
  let base =
    {
      (Cluster.Runtime.default_config ()) with
      Cluster.Runtime.duration = t 120;
      drain = t 40;
      load = 40;
      bucket = t 40;
    }
  in
  let cut =
    Partition.make
      ~group2:(Site_id.set_of_ints [ 3 ])
      ~starts_at:(t 50) ~heals_at:(t 70) ~n:3 ()
  in
  {
    Cluster.Cluster_sweep.base;
    seeds = [ 1L; 2L; 3L ];
    timelines = [ ("none", Partition.none); ("cut", cut) ];
    policies =
      [ Cluster.Scheduler.Fixed_master; Cluster.Scheduler.Partition_aware ];
    protocols = [];
  }

let test_cluster_sweep_jobs_deterministic () =
  let grid = cluster_grid () in
  let export s = Export.to_string (Cluster.Cluster_sweep.to_json s) in
  let sequential = export (Cluster.Cluster_sweep.run grid) in
  List.iter
    (fun jobs ->
      let parallel = export (Cluster.Cluster_sweep.run ~jobs grid) in
      check Alcotest.string
        (Printf.sprintf "jobs=%d = sequential" jobs)
        sequential parallel)
    [ 1; 2; 4; 8 ]

let qcheck_cluster_batched_identical =
  QCheck.Test.make ~count:4
    ~name:"cluster sweep byte-identical across chunk x jobs x permutation"
    QCheck.(triple (int_range 1 3) (int_range 1 5) small_nat)
    (fun (domains, chunk, perm_seed) ->
      let tasks =
        shuffled ~seed:perm_seed
          (Array.of_list (Cluster.Cluster_sweep.tasks (cluster_grid ())))
      in
      let eval scratch (label, config) =
        Cluster.Cluster_sweep.of_report ~label
          (Cluster.Runtime.run ~scratch config)
      in
      let merge = Cluster.Cluster_sweep.merge ~keep:5 in
      let sequential =
        left_fold ~init:Cluster.Runtime.make_scratch ~f:eval ~merge tasks
      in
      let batched =
        Pool.fold_chunks ~domains ~chunk ~init:Cluster.Runtime.make_scratch
          ~f:eval ~merge tasks
      in
      String.equal
        (Export.to_string (Cluster.Cluster_sweep.to_json sequential))
        (Export.to_string (Cluster.Cluster_sweep.to_json batched)))

let test_cluster_sweep_accounting () =
  let grid = cluster_grid () in
  let tasks = Cluster.Cluster_sweep.tasks grid in
  check Alcotest.int "grid size = seeds x timelines x policies" 12
    (List.length tasks);
  let s = Cluster.Cluster_sweep.run ~jobs:2 grid in
  check Alcotest.int "one summary row per task" 12 s.Cluster.Cluster_sweep.runs;
  check Alcotest.int "settled = committed + aborted + torn"
    s.Cluster.Cluster_sweep.settled
    (s.Cluster.Cluster_sweep.committed + s.Cluster.Cluster_sweep.aborted
   + s.Cluster.Cluster_sweep.torn);
  (* the merged metrics really aggregate across runs: the commit
     histogram has one sample per committed transaction *)
  match Cluster.Metrics.histogram s.Cluster.Cluster_sweep.metrics "latency.commit" with
  | Some stats ->
      check Alcotest.int "histogram spans all runs"
        s.Cluster.Cluster_sweep.committed stats.Stats.count
  | None -> Alcotest.fail "expected a merged commit-latency histogram"

(* An invalid config raises inside the run, on whichever domain claims
   it; the fold joins every worker before handing the exception to the
   caller. *)
let expect_load_rejected f =
  match f () with
  | _ -> Alcotest.fail "expected Invalid_argument from Runtime.run"
  | exception Invalid_argument msg ->
      check Alcotest.string "the run's own message"
        "Runtime.run: load must be >= 1" msg

let test_cluster_sweep_run_error () =
  let grid = cluster_grid () in
  let base = { grid.Cluster.Cluster_sweep.base with Cluster.Runtime.load = 0 } in
  expect_load_rejected (fun () ->
      Cluster.Cluster_sweep.run ~jobs:2 { grid with Cluster.Cluster_sweep.base })

(* ------------------------------------------------------------------ *)
(* Soak determinism across chunk x domains                             *)
(* ------------------------------------------------------------------ *)

let soak_config () =
  {
    (Cluster.Soak.default_config ()) with
    Cluster.Soak.seed = 5L;
    epochs = 6;
    segment = t 40;
  }

let qcheck_soak_batched_identical =
  QCheck.Test.make ~count:4
    ~name:"soak byte-identical across chunk x jobs x permutation"
    QCheck.(triple (int_range 1 3) (int_range 1 5) small_nat)
    (fun (domains, chunk, perm_seed) ->
      let config = soak_config () in
      let epochs =
        shuffled ~seed:perm_seed (Array.init config.Cluster.Soak.epochs Fun.id)
      in
      let eval scratch epoch =
        Cluster.Soak.of_report ~epoch
          (Cluster.Runtime.run ~scratch (Cluster.Soak.epoch_config config ~epoch))
      in
      let merge = Cluster.Soak.merge in
      let sequential =
        left_fold ~init:Cluster.Runtime.make_scratch ~f:eval ~merge epochs
      in
      let batched =
        Pool.fold_chunks ~domains ~chunk ~init:Cluster.Runtime.make_scratch
          ~f:eval ~merge epochs
      in
      let export s = Export.to_string (Cluster.Soak.to_json config s) in
      String.equal (export sequential) (export batched))

let test_soak_run_error () =
  let config = soak_config () in
  let base = { config.Cluster.Soak.base with Cluster.Runtime.load = 0 } in
  expect_load_rejected (fun () ->
      Cluster.Soak.run ~jobs:2 { config with Cluster.Soak.base })

let () =
  Alcotest.run "commit_par"
    [
      ( "pool",
        [
          Alcotest.test_case "bad input raises" `Quick
            test_fold_bad_input_raises;
          Alcotest.test_case "chunk > input" `Quick
            test_chunk_larger_than_input;
          Alcotest.test_case "merge order" `Quick test_fold_merge_ordered;
          Alcotest.test_case "exception propagation" `Quick
            test_fold_exception_propagation;
          Alcotest.test_case "fold = left fold at every jobs" `Quick
            test_fold_matches_left_fold;
          Alcotest.test_case "scratch per domain" `Quick
            test_fold_scratch_per_domain;
          Alcotest.test_case "caller claims chunks" `Quick
            test_fold_caller_executes;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "deterministic across jobs" `Slow
            test_sweep_jobs_deterministic;
          Alcotest.test_case "rejects jobs=0" `Quick
            test_sweep_jobs_rejects_zero;
          Alcotest.test_case "scratch reuse invisible" `Quick
            test_runner_scratch_invisible;
          QCheck_alcotest.to_alcotest qcheck_sweep_batched_identical;
        ] );
      ( "cluster-sweep",
        [
          Alcotest.test_case "deterministic across jobs" `Slow
            test_cluster_sweep_jobs_deterministic;
          Alcotest.test_case "accounting" `Quick test_cluster_sweep_accounting;
          QCheck_alcotest.to_alcotest qcheck_cluster_batched_identical;
          Alcotest.test_case "run error reaches the caller" `Quick
            test_cluster_sweep_run_error;
        ] );
      ( "soak",
        [
          QCheck_alcotest.to_alcotest qcheck_soak_batched_identical;
          Alcotest.test_case "run error reaches the caller" `Quick
            test_soak_run_error;
        ] );
    ]
