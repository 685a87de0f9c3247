type summary = {
  protocol : string;
  runs : int;
  violations : int;
  blocked_runs : int;
  committed : int;
  aborted : int;
  undecided : int;
  max_decision_time : Vtime.t option;
  total_decision_time : int;
  violation_examples : (Runner.config * Verdict.t) list;
  blocked_examples : (Runner.config * Verdict.t) list;
}

let empty ~protocol =
  {
    protocol;
    runs = 0;
    violations = 0;
    blocked_runs = 0;
    committed = 0;
    aborted = 0;
    undecided = 0;
    max_decision_time = None;
    total_decision_time = 0;
    violation_examples = [];
    blocked_examples = [];
  }

(* The summary of one run: the unit the parallel merge folds over. *)
let of_verdict ~protocol (config, (v : Verdict.t)) =
  let base = empty ~protocol in
  let base =
    match Verdict.outcome v with
    | `Mixed ->
        {
          base with
          violations = 1;
          violation_examples = [ (config, v) ];
        }
    | `Committed -> { base with committed = 1 }
    | `Aborted -> { base with aborted = 1 }
    | `Undecided -> { base with undecided = 1 }
  in
  let base =
    if v.blocked <> [] then
      { base with blocked_runs = 1; blocked_examples = [ (config, v) ] }
    else base
  in
  {
    base with
    runs = 1;
    max_decision_time = v.max_decision_time;
    total_decision_time =
      (match v.max_decision_time with Some at -> Vtime.to_int at | None -> 0);
  }

let rec prefix budget l =
  if budget = 0 then []
  else match l with [] -> [] | x :: rest -> x :: prefix (budget - 1) rest

let cap_append ~keep a b =
  let rec len_capped n l =
    if n > keep then n
    else match l with [] -> n | _ :: rest -> len_capped (n + 1) rest
  in
  let la = len_capped 0 a in
  if la > keep then prefix keep a
  else if la = keep || b == [] then a
  else match prefix (keep - la) b with [] -> a | extra -> a @ extra

let merge ~keep a b =
  {
    protocol = a.protocol;
    runs = a.runs + b.runs;
    violations = a.violations + b.violations;
    blocked_runs = a.blocked_runs + b.blocked_runs;
    committed = a.committed + b.committed;
    aborted = a.aborted + b.aborted;
    undecided = a.undecided + b.undecided;
    max_decision_time =
      (match (a.max_decision_time, b.max_decision_time) with
      | None, later | later, None -> later
      | Some p, Some q -> Some (Vtime.max p q));
    total_decision_time = a.total_decision_time + b.total_decision_time;
    violation_examples =
      cap_append ~keep a.violation_examples b.violation_examples;
    blocked_examples = cap_append ~keep a.blocked_examples b.blocked_examples;
  }

let eval ~protocol ~protocol_name scratch config =
  let config = { config with Runner.trace_enabled = false } in
  let result = Runner.run ~scratch protocol config in
  of_verdict ~protocol:protocol_name (config, Verdict.of_result result)

let run ?(keep = 3) ?jobs protocol configs =
  let protocol_name = Site.name protocol in
  match configs with
  | [] -> empty ~protocol:protocol_name
  | configs ->
      Commit_par.Pool.fold ?jobs ~init:Runner.make_scratch
        ~f:(eval ~protocol ~protocol_name) ~merge:(merge ~keep) configs

let mean_decision_time s =
  let decided = s.runs - s.undecided in
  if decided <= 0 then None
  else Some (float_of_int s.total_decision_time /. float_of_int decided)

let pp_summary fmt s =
  Format.fprintf fmt
    "%-22s runs=%-5d violations=%-4d blocked=%-4d commit=%-4d abort=%-4d \
     undecided=%-3d%s%s"
    s.protocol s.runs s.violations s.blocked_runs s.committed s.aborted
    s.undecided
    (match s.max_decision_time with
    | Some t -> Format.asprintf " max-decide=%a" Vtime.pp t
    | None -> "")
    (match mean_decision_time s with
    | Some mean -> Format.asprintf " mean-decide=%.0f" mean
    | None -> "");
  List.iter
    (fun (config, v) ->
      Format.fprintf fmt "@.    violation at %s: %a" (Scenario.config_id config)
        Verdict.pp v)
    s.violation_examples;
  List.iter
    (fun (config, v) ->
      Format.fprintf fmt "@.    blocked at %s: %a" (Scenario.config_id config)
        Verdict.pp v)
    s.blocked_examples
