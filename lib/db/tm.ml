type txn_spec = Txn_core.txn_spec = {
  tid : int;
  start_at : Vtime.t;
  writes : (Site_id.t * Wal.update list) list;
  reads : (Site_id.t * string list) list;
  vote_no : Site_id.t list;
}

let txn ?(reads = []) ?(vote_no = []) ~tid ~start_at writes =
  if tid < 1 then invalid_arg "Tm.txn: tids start at 1";
  { tid; start_at; writes; reads; vote_no }

type txn_status =
  | Txn_committed
  | Txn_aborted
  | Txn_blocked
  | Txn_torn
  | Txn_waiting_locks

let pp_status fmt s =
  Format.pp_print_string fmt
    (match s with
    | Txn_committed -> "committed"
    | Txn_aborted -> "aborted"
    | Txn_blocked -> "blocked"
    | Txn_torn -> "TORN"
    | Txn_waiting_locks -> "waiting-locks")

type txn_report = {
  spec : txn_spec;
  status : txn_status;
  locks_granted_at : Vtime.t option;
  all_decided_at : Vtime.t option;
  lock_wait : Vtime.t option;
  latency : Vtime.t option;
}

type config = {
  protocol : Site.packed;
  n : int;
  t_unit : Vtime.t;
  mode : Network.mode;
  partition : Partition.t;
  delay : Delay.t;
  seed : int64;
  horizon : Vtime.t;
  trace_enabled : bool;
  initial : (Site_id.t * (string * string) list) list;
  crashes : (Site_id.t * Vtime.t) list;
}

let default_config ~protocol ?(n = 3) () =
  let t_unit = Vtime.of_int 1000 in
  {
    protocol;
    n;
    t_unit;
    mode = Network.Optimistic;
    partition = Partition.none;
    delay = Delay.uniform ~t_max:t_unit;
    seed = 1L;
    horizon = Vtime.of_int (200 * Vtime.to_int t_unit);
    trace_enabled = false;
    initial = [];
    crashes = [];
  }

type report = {
  txns : txn_report list;
  stores : Durable_site.t array;
  trace : Trace.t;
  net_stats : Network.stats;
  crashed : Site_id.t list;
}

(* Manager-side trace templates, in the core's "tm" topic.  Registered
   here, not in [Run]: the functor is applied per run and templates are
   global. *)

let buf_tid b tid =
  Buffer.add_char b 't';
  Buffer.add_string b (string_of_int tid)

let tmpl_locks_granted =
  Trace.register_template (fun b lookup tid name _ _ _ ->
      buf_tid b tid;
      Buffer.add_string b ": all locks granted; starting ";
      Buffer.add_string b (lookup name))

let tmpl_lock_wait =
  Trace.register_template (fun b _ tid n _ _ _ ->
      buf_tid b tid;
      Buffer.add_string b ": waiting for ";
      Buffer.add_string b (string_of_int n);
      Buffer.add_string b " locks")

module Run (P : Site.S) = struct
  module Core = Txn_core.Make (P)

  (* Tm's per-transaction state, carried in the core's record. *)
  type locking = {
    mutable pending_locks : int;
    decided_at : Vtime.t option array;  (* index i = site i+1 *)
  }

  type state = {
    config : config;
    engine : Engine.t;
    core : locking Core.t;
    log : Trace.t;  (* cached Engine.trace *)
    on : bool;  (* cached Trace.on *)
    locks : Lock_manager.t array;
    on_gauge : (string -> int -> unit) option;
        (* telemetry gauge sink ("gauge.lock_waiters") — Tm sits below
           the metrics pipeline, so gauges flow out via callback *)
  }

  let locks_at state site = state.locks.(Site_id.to_int site - 1)

  let now state = Engine.now state.engine

  (* Sample the cross-site lock-wait queue depth into the gauge sink;
     called whenever the wait graph may have changed shape. *)
  let sample_lock_gauge state =
    match state.on_gauge with
    | None -> ()
    | Some sink ->
        sink "gauge.lock_waiters"
          (Array.fold_left
             (fun n lm -> n + Lock_manager.wait_depth lm)
             0 state.locks)

  (* One request per (site, key), exclusive when the transaction writes
     the key, and none at a site that is down: a crashed site serves no
     lock requests. *)
  let lock_requests state (spec : txn_spec) =
    let rec first_per_key = function
      | [] -> []
      | ((site, key, _) as request) :: rest ->
          let other (s, k, _) = not (Site_id.equal s site && String.equal k key) in
          request :: first_per_key (List.filter other rest)
    in
    List.concat_map
      (fun (site, updates) ->
        List.map
          (fun (u : Wal.update) -> (site, u.key, Lock_manager.Exclusive))
          updates)
      spec.writes
    @ List.concat_map
        (fun (site, keys) ->
          List.map (fun key -> (site, key, Lock_manager.Shared)) keys)
        spec.reads
    |> first_per_key
    |> List.filter (fun (site, _, _) -> Core.alive state.core site)

  let release_site state site tid =
    Core.prof_enter state.core Prof.Locks;
    let grants = Lock_manager.release_all (locks_at state site) ~tid in
    Core.prof_leave state.core;
    grants

  (* Transaction-lifecycle spans live on track 0 (the manager's own
     timeline): txn ⊃ lock-wait, protocol.  The core seals them when
     the last live site decides; [close_open_spans] catches
     transactions still blocked at the horizon.  Entering lock-wait or
     the protocol is also a line "t<tid>: ..." in the core's topic:
     [write] makes the two one record. *)
  let lifecycle state (write : unit Trace.writer) ~tid name tmpl arg =
    let log = state.log in
    write log ~at:(now state) ~site:0 ~tid ~cat:(Trace.intern log "lifecycle")
      ~name:(Trace.intern log name) ~topic:(Core.topic state.core) tmpl tid arg
      0 0

  let rec activate state (txn : locking Core.txn) =
    let tid = txn.spec.tid in
    if state.on then begin
      let log = state.log and at = now state in
      if Obs.open_depth log ~site:0 ~tid > 1 then
        Obs.span_end log ~at ~site:0 ~tid;  (* lock-wait *)
      lifecycle state Trace.span_begin ~tid "protocol" tmpl_locks_granted
        (Trace.intern log P.name)
    end;
    Core.start state.core txn ~master:Site_id.master

  and on_grants state grants =
    List.iter
      (fun (g : Lock_manager.grant) ->
        match Core.find state.core g.tid with
        | None -> ()
        | Some txn ->
            let l = txn.client in
            l.pending_locks <- l.pending_locks - 1;
            if l.pending_locks = 0 then activate state txn)
      grants;
    sample_lock_gauge state

  let start_txn state (txn : locking Core.txn) =
    let tid = txn.spec.tid in
    if state.on then
      Obs.span_begin state.log ~at:(now state) ~site:0 ~tid ~cat:"txn" "txn";
    let requests = lock_requests state txn.spec in
    if requests = [] then activate state txn
    else begin
      let waiting = ref 0 in
      Core.prof_enter state.core Prof.Locks;
      List.iter
        (fun (site, key, mode) ->
          match Lock_manager.acquire (locks_at state site) ~tid ~key ~mode with
          | `Granted -> ()
          | `Waiting -> incr waiting)
        requests;
      Core.prof_leave state.core;
      txn.client.pending_locks <- !waiting;
      if !waiting = 0 then activate state txn
      else begin
        if state.on then
          lifecycle state Trace.span_begin ~tid "lock-wait" tmpl_lock_wait
            !waiting;
        sample_lock_gauge state
      end
    end

  let report_of state (txn : locking Core.txn) =
    let core = state.core and spec = txn.spec in
    let status =
      if not (Core.started txn) then Txn_waiting_locks
      else
        match Core.outcome core txn with
        | Txn_core.Committed -> Txn_committed
        | Txn_core.Aborted -> Txn_aborted
        | Txn_core.Open -> Txn_blocked
        | Txn_core.Torn -> Txn_torn
    in
    (* Like the status, latency counts the sites alive at the horizon. *)
    let all_decided_at =
      List.fold_left
        (fun acc site ->
          match (acc, txn.client.decided_at.(Site_id.to_int site - 1)) with
          | Some a, Some b -> Some (Vtime.max a b)
          | None, _ | _, None -> None)
        (Some spec.start_at)
        (List.filter (Core.alive core) (Site_id.all ~n:state.config.n))
    in
    let locks_granted_at =
      if Core.started txn then Some txn.started_at else None
    in
    {
      spec;
      status;
      locks_granted_at;
      all_decided_at;
      lock_wait = Option.map (fun g -> Vtime.sub g spec.start_at) locks_granted_at;
      latency = Option.map (fun d -> Vtime.sub d spec.start_at) all_decided_at;
    }

  let run ~obs ~prof ~on_gauge config specs =
    let tids = List.map (fun s -> s.tid) specs in
    let distinct = List.sort_uniq Int.compare tids in
    if List.length distinct <> List.length tids then
      invalid_arg "Tm.run: duplicate tids";
    let log = Obs.log obs ~text:config.trace_enabled in
    let engine = Engine.create ~trace:log () in
    let core =
      Core.create ~engine ?prof ~topic:"tm" ~n:config.n
        ~t_unit:config.t_unit ~mode:config.mode ~partition:config.partition
        ~delay:config.delay ~seed:config.seed ~initial:config.initial ()
    in
    let state =
      {
        config;
        engine;
        core;
        log;
        on = Trace.on log;
        locks = Array.init config.n (fun _ -> Lock_manager.create ());
        on_gauge;
      }
    in
    Core.set_hooks core
      {
        Core.no_hooks with
        decided =
          (fun txn site _ ->
            txn.client.decided_at.(Site_id.to_int site - 1) <- Some (now state);
            on_grants state (release_site state site txn.spec.tid));
        crashed =
          (fun site ->
            (* The site's lock table is volatile too, and a crashed site
               serves no lock requests.  Only in-doubt (prepared)
               transactions keep their locks — the WAL pins their data
               until the group outcome is known; everything else is
               released, and a waiter stops waiting on the site. *)
            let durable = (Core.stores core).(Site_id.to_int site - 1) in
            Core.prof_enter state.core Prof.Locks;
            let grants =
              Lock_manager.purge (locks_at state site) ~keep:(fun tid ->
                  Durable_site.status durable ~tid = `Prepared)
            in
            Core.prof_leave state.core;
            on_grants state grants);
      };
    Core.schedule_faults core ~crashes:config.crashes ~recoveries:[];
    (* The report reads every transaction, and the core's table forgets
       the ones every site decided: keep the records. *)
    let txns =
      List.map
        (fun spec ->
          let txn =
            Core.add core spec
              { pending_locks = 0; decided_at = Array.make config.n None }
          in
          ignore
            (Engine.schedule_at engine ~at:spec.start_at
               ~label:(Label.Static "txn-start") (fun () -> start_txn state txn));
          txn)
        specs
    in
    Engine.run ~until:config.horizon engine;
    Obs.close_open_spans log ~at:(Engine.now engine);
    {
      txns = List.map (report_of state) txns;
      stores = Core.stores core;
      trace = log;
      net_stats = Network.stats (Core.net core);
      crashed =
        List.filter
          (fun site -> not (Core.alive core site))
          (Site_id.all ~n:config.n);
    }
end

let run ?(obs = Obs.disabled) ?prof ?on_gauge config specs =
  let (module P : Site.S) = config.protocol in
  let module R = Run (P) in
  R.run ~obs ~prof ~on_gauge config specs

let count_status report status =
  List.length (List.filter (fun r -> r.status = status) report.txns)

let pp_report fmt report =
  List.iter
    (fun r ->
      Format.fprintf fmt "t%-3d %-16s lock-wait=%-6s latency=%s@." r.spec.tid
        (Format.asprintf "%a" pp_status r.status)
        (match r.lock_wait with
        | Some w -> Format.asprintf "%a" Vtime.pp w
        | None -> "-")
        (match r.latency with
        | Some l -> Format.asprintf "%a" Vtime.pp l
        | None -> "-"))
    report.txns
