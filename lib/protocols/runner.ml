type config = {
  n : int;
  t_unit : Vtime.t;
  mode : Network.mode;
  partition : Partition.t;
  delay : Delay.t;
  seed : int64;
  votes : (Site_id.t * bool) list;
  crashes : (Site_id.t * Vtime.t) list;
  start_at : Vtime.t;
  horizon : Vtime.t;
  trace_enabled : bool;
}

let default_config ?(n = 3) ?(t_unit = Vtime.of_int 1000) () =
  {
    n;
    t_unit;
    mode = Network.Optimistic;
    partition = Partition.none;
    delay = Delay.uniform ~t_max:t_unit;
    seed = 1L;
    votes = [];
    crashes = [];
    start_at = Vtime.zero;
    horizon = Vtime.of_int (50 * Vtime.to_int t_unit);
    trace_enabled = true;
  }

type site_result = {
  site : Site_id.t;
  decision : Types.decision option;
  decided_at : Vtime.t option;
  final_state : string;
  reasons : string list;
  crashed : bool;
}

type result = {
  protocol_name : string;
  config : config;
  sites : site_result array;
  net_stats : Network.stats;
  trace : Trace.t;
  finished_at : Vtime.t;
  events_run : int;
}

let vote_of config site =
  match List.assoc_opt site config.votes with Some v -> v | None -> true

(* Per-domain reusable state for sweeps: one engine whose heap array
   survives (reset, not reallocated) across runs, and the buffer the
   last run's network recorded its partition queries in.  The log is
   NOT part of the scratch — each run gets a fresh [Trace.t] (free when
   disabled) or the caller's recorder, so [result.trace] never aliases
   a later run's data. *)
type scratch = { scratch_engine : Engine.t; queries : Network.Query_log.t }

let make_scratch () =
  {
    scratch_engine = Engine.create ~trace:(Trace.create ~enabled:false ()) ();
    queries = Network.Query_log.create ();
  }

let queries scratch = scratch.queries

let run ?tap ?(obs = Obs.disabled) ?scratch (module P : Site.S) config =
  if config.n < 2 then invalid_arg "Runner.run: need at least two sites";
  List.iter
    (fun (site, _) ->
      let s = Site_id.to_int site in
      if s < 1 || s > config.n then
        invalid_arg
          (Printf.sprintf "Runner.run: crash site %d out of range (n=%d)" s
             config.n))
    config.crashes;
  let trace = Obs.log obs ~text:config.trace_enabled in
  let engine =
    match scratch with
    | Some s ->
        Engine.reset ~trace s.scratch_engine;
        s.scratch_engine
    | None -> Engine.create ~trace ()
  in
  let net =
    Network.create ~engine ~n:config.n ~t_max:config.t_unit ~mode:config.mode
      ~partition:config.partition ~delay:config.delay ~seed:config.seed
      ~pp_payload:Types.pp_msg ~payload_codec:Types.msg_codec ~obs_tid:(fun _ -> 1)  (* the single transaction *)
      ?queries:(Option.map queries scratch) ()
  in
  (match tap with Some tap -> Network.set_tap net tap | None -> ());
  let decisions = Array.make config.n None in
  let decided_at = Array.make config.n None in
  let reasons = Array.make config.n [] in
  let make_site id =
    let index = Site_id.to_int id - 1 in
    let ctx =
      Ctx.make ~engine ~n:config.n ~t_unit:config.t_unit ~self:id ~trans_id:1
        ~send:(fun dst msg -> Network.send net ~src:id ~dst msg)
        ~on_decide:(fun d ->
          decisions.(index) <- Some d;
          decided_at.(index) <- Some (Engine.now engine))
        ~on_reason:(fun r -> reasons.(index) <- r :: reasons.(index))
        ()
    in
    let role =
      if Site_id.is_master id then Site.Master_role
      else Site.Slave_role { vote_yes = vote_of config id }
    in
    P.create ctx role
  in
  let sites = Array.init config.n (fun i -> make_site (Site_id.of_int (i + 1))) in
  Network.set_handler net (fun id delivery ->
      P.on_delivery sites.(Site_id.to_int id - 1) delivery);
  List.iter
    (fun (site, at) ->
      ignore
        (Engine.schedule_at engine ~at ~label:(Label.Static "crash") (fun () ->
             Network.crash net site)))
    config.crashes;
  ignore
    (Engine.schedule_at engine ~at:config.start_at
       ~label:(Label.Static "request") (fun () ->
         P.begin_transaction sites.(0)));
  Engine.run ~until:config.horizon engine;
  Obs.close_open_spans trace ~at:(Engine.now engine);
  let site_results =
    Array.init config.n (fun i ->
        let site = Site_id.of_int (i + 1) in
        {
          site;
          decision = decisions.(i);
          decided_at = decided_at.(i);
          final_state = P.state_name sites.(i);
          reasons = List.rev reasons.(i);
          crashed = not (Network.alive net site);
        })
  in
  {
    protocol_name = P.name;
    config;
    sites = site_results;
    net_stats = Network.stats net;
    trace;
    finished_at = Engine.now engine;
    events_run = Engine.events_run engine;
  }

let site_result result site = result.sites.(Site_id.to_int site - 1)

let decisions result =
  Array.to_list (Array.map (fun s -> s.decision) result.sites)

let pp_result fmt result =
  Format.fprintf fmt "%s (n=%d, %a):@." result.protocol_name result.config.n
    Partition.pp result.config.partition;
  Array.iter
    (fun s ->
      Format.fprintf fmt "  %-7s %-18s %s%s@."
        (Format.asprintf "%a" Site_id.pp s.site)
        (match (s.decision, s.crashed) with
        | _, true -> "CRASHED"
        | Some d, false ->
            Format.asprintf "%a@%s" Types.pp_decision d
              (match s.decided_at with
              | Some t -> Format.asprintf "%a" Vtime.pp t
              | None -> "?")
        | None, false -> "BLOCKED")
        s.final_state
        (match s.reasons with
        | [] -> ""
        | rs -> " [" ^ String.concat "; " rs ^ "]"))
    result.sites
