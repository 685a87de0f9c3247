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
  let outcome = Verdict.outcome v and blocked = v.blocked <> [] in
  {
    protocol;
    runs = 1;
    violations = Bool.to_int (outcome = `Mixed);
    blocked_runs = Bool.to_int blocked;
    committed = Bool.to_int (outcome = `Committed);
    aborted = Bool.to_int (outcome = `Aborted);
    undecided = Bool.to_int (outcome = `Undecided);
    max_decision_time = v.max_decision_time;
    total_decision_time =
      (match v.max_decision_time with Some at -> Vtime.to_int at | None -> 0);
    violation_examples = (if outcome = `Mixed then [ (config, v) ] else []);
    blocked_examples = (if blocked then [ (config, v) ] else []);
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

(* The runs an executor has simulated, as one trie per key: a config
   with its partition taken out.  The network reads a run's partition
   only when a message arrives, through [Partition.separated], so a run
   is a deterministic function of its key and of the answer to each
   query (arrival instant, sender, receiver) it makes.  A node is a
   run's next query, an edge the answer, a leaf the verdict.  A config
   walks its key's trie asking its own partition each node's query; a
   leaf is the verdict of a run that got the same answers to the same
   queries, that is of the config's own run.  A config that falls off
   is simulated, and its queries are inserted below the point where it
   left.  A [Per_link] closure may carry state from one run to the
   next, so its runs are never stored.

   Nodes are three ints each in one array: the packed query (a leaf
   holds [lnot] its verdict's index instead), then the child under "no"
   and under "yes" ([-1]: no run has taken that edge yet; always, in a
   leaf). *)
module Keys = Hashtbl.Make (struct
  type t = Runner.config

  (* Every field but [partition], and [trace_enabled], which [eval]
     turns off; the pattern names every field, so a new one does not
     compile until the key compares it.  Grids share delay, votes and
     crashes values, so [==] settles most comparisons, and an empty
     list hashes without a C call. *)
  let equal (a : t)
      { Runner.n; t_unit; mode; partition = _; delay; seed; votes; crashes;
        start_at; horizon; trace_enabled = _ } =
    a.n = n && a.t_unit = t_unit && a.mode = mode && Int64.equal a.seed seed
    && a.start_at = start_at && a.horizon = horizon
    && (a.delay == delay || a.delay = delay)
    && (a.votes == votes || a.votes = votes)
    && (a.crashes == crashes || a.crashes = crashes)

  let hash_list = function [] -> 0 | l -> Hashtbl.hash l

  let hash (c : t) =
    Hashtbl.hash c.delay + (31 * hash_list c.votes)
    + (961 * hash_list c.crashes) + (29_791 * c.n) + Int64.to_int c.seed
end)

(* A key's root path: its trie's nodes reached from the root by "no"
   edges alone, root first, that is the key's partition-free run as far
   as the stored runs know it.  Empty until the key's first run. *)
type path = { mutable ids : int array; mutable length : int }

type scratch = {
  runner : Runner.scratch;
  paths : path Keys.t;
  mutable nodes : int array;
  mutable size : int;  (* nodes in use *)
  mutable verdicts : Verdict.t array;
  mutable leaves : int;  (* verdicts in use *)
}

let make_scratch () =
  {
    runner = Runner.make_scratch ();
    paths = Keys.create 64;
    nodes = Array.make (3 * 256) (-1);
    size = 0;
    verdicts = [||];
    leaves = 0;
  }

(* The first of [path]'s nodes [lo..hi) that is a leaf or whose query
   comes at [from] or later; [hi] if there is none. *)
let rec enter nodes path from lo hi =
  if lo = hi then lo
  else
    let mid = (lo + hi) / 2 in
    let q = nodes.(3 * path.ids.(mid)) in
    if q < 0 || q >= from then enter nodes path from lo mid
    else enter nodes path from (mid + 1) hi

let rec follow nodes partition node =
  let q = nodes.(3 * node) in
  if q < 0 then lnot q
  else
    let yes = Network.Query_log.separated partition q in
    let child = nodes.((3 * node) + 1 + Bool.to_int yes) in
    if child < 0 then -1 else follow nodes partition child

(* The verdict index of the leaf [partition] leads to in [path]'s trie,
   or [-1] if it falls off.  No partition separates anyone before it
   starts, and instants never decrease along a run, so every query
   before the start takes the "no" edge unasked: the walk enters at the
   first root-path node at or after the start.  A path that ends before
   the start ends at a node whose "no" edge no run has taken. *)
let walk nodes path partition =
  let from = Network.Query_log.from (Partition.starts_at partition) in
  let entry = enter nodes path from 0 path.length in
  if entry = path.length then -1 else follow nodes partition path.ids.(entry)

(* New nodes for queries [i..] of [log] and a leaf for verdict [v],
   chained along the log's answers; returns the first. *)
let chain s log i v =
  let length = Network.Query_log.length log in
  let first = s.size in
  let size = first + length - i + 1 in
  if 3 * size > Array.length s.nodes then begin
    let grown = Array.make (Int.max (6 * size) (2 * Array.length s.nodes)) (-1) in
    Array.blit s.nodes 0 grown 0 (3 * s.size);
    s.nodes <- grown
  end;
  for k = i to length - 1 do
    let node = first + k - i in
    s.nodes.(3 * node) <- Network.Query_log.query log k;
    s.nodes.((3 * node) + 1 + Bool.to_int (Network.Query_log.answer log k)) <-
      node + 1
  done;
  s.nodes.(3 * (size - 1)) <- lnot v;
  s.size <- size;
  first

(* Inserts [config]'s run, just simulated, into [path]'s trie, checking
   on the way down that each stored query is the one the run made,
   which determinism guarantees; then extends the root path along the
   "no" edges the trie now has. *)
let insert s config path log verdict =
  if s.leaves = Array.length s.verdicts then
    s.verdicts <-
      Array.append s.verdicts (Array.make (Int.max 64 s.leaves) verdict);
  let v = s.leaves in
  s.verdicts.(v) <- verdict;
  s.leaves <- v + 1;
  let length = Network.Query_log.length log in
  let rec descend node i =
    if i = length || s.nodes.(3 * node) <> Network.Query_log.query log i then
      failwith
        (Printf.sprintf
           "Sweep: a run of %s made partition query %d unlike an earlier \
            run with the same answers"
           (Scenario.config_id config) i);
    let edge = (3 * node) + 1 + Bool.to_int (Network.Query_log.answer log i) in
    match s.nodes.(edge) with
    | -1 ->
        (* [chain] may grow [s.nodes]: store into the grown array. *)
        let child = chain s log (i + 1) v in
        s.nodes.(edge) <- child
    | child -> descend child (i + 1)
  in
  let rec extend last =
    let next = s.nodes.((3 * last) + 1) in
    if next >= 0 then begin
      if path.length = Array.length path.ids then
        path.ids <- Array.append path.ids path.ids;
      path.ids.(path.length) <- next;
      path.length <- path.length + 1;
      extend next
    end
  in
  if path.length = 0 then begin
    path.ids.(0) <- chain s log 0 v;
    path.length <- 1
  end
  else descend path.ids.(0) 0;
  extend path.ids.(path.length - 1)

let simulate ~protocol s config =
  Verdict.of_result (Runner.run ~scratch:s.runner protocol config)

let eval ~protocol ~protocol_name s config =
  let config =
    if config.Runner.trace_enabled then { config with trace_enabled = false }
    else config
  in
  let verdict =
    match config.delay with
    | Delay.Per_link _ -> simulate ~protocol s config
    | Fixed _ | Uniform _
      when not (Network.Query_log.exact ~n:config.n ~horizon:config.horizon) ->
        simulate ~protocol s config
    | Fixed _ | Uniform _ ->
        let path =
          match Keys.find s.paths config with
          | path -> path
          | exception Not_found ->
              let path = { ids = Array.make 32 (-1); length = 0 } in
              Keys.add s.paths config path;
              path
        in
        let leaf = walk s.nodes path config.partition in
        if leaf >= 0 then s.verdicts.(leaf)
        else
          let v = simulate ~protocol s config in
          insert s config path (Runner.queries s.runner) v;
          v
  in
  of_verdict ~protocol:protocol_name (config, verdict)

let run ?(keep = 3) ?jobs protocol configs =
  let protocol_name = Site.name protocol in
  match configs with
  | [] -> empty ~protocol:protocol_name
  | configs ->
      Commit_par.Pool.fold ?jobs ~init:make_scratch
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
