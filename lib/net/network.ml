type 'a envelope = {
  src : Site_id.t;
  dst : Site_id.t;
  payload : 'a;
  sent_at : Vtime.t;
}

type 'a delivery = Msg of 'a envelope | Undeliverable of 'a envelope

type mode = Optimistic | Pessimistic

type 'a event =
  | Sent of { env : 'a envelope; at : Vtime.t }
  | Delivered of { env : 'a envelope; at : Vtime.t }
  | Bounced of { env : 'a envelope; at : Vtime.t }
  | Lost of { env : 'a envelope; at : Vtime.t }

type stats = { sent : int; delivered : int; bounced : int; lost : int }

(* One int per query: the arrival instant above 10 bits of sender and
   10 bits of receiver, then the answer in bit 0. *)
module Query_log = struct
  type t = { mutable entries : int array; mutable length : int }

  let create () = { entries = Array.make 64 0; length = 0 }

  let clear log = log.length <- 0

  let add log ~at src dst answer =
    if log.length = Array.length log.entries then begin
      let grown = Array.make (2 * log.length) 0 in
      Array.blit log.entries 0 grown 0 log.length;
      log.entries <- grown
    end;
    log.entries.(log.length) <-
      (Vtime.to_int at lsl 21)
      lor (Site_id.to_int src lsl 11)
      lor (Site_id.to_int dst lsl 1)
      lor Bool.to_int answer;
    log.length <- log.length + 1

  let length log = log.length

  let query log i = log.entries.(i) lsr 1

  let answer log i = log.entries.(i) land 1 = 1

  let from at = if at < 1 lsl 41 then at lsl 20 else max_int

  let separated partition q =
    Partition.separated partition ~at:(q lsr 20)
      (Site_id.of_int ((q lsr 10) land 0x3ff))
      (Site_id.of_int (q land 0x3ff))

  let exact ~n ~horizon = n < 0x400 && Vtime.to_int horizon < 1 lsl 41
end

(* ------------------------------------------------------------------ *)
(* Binary trace templates                                              *)
(*                                                                     *)
(* The network's trace lines all have the shape "endpoints, verb,      *)
(* payload [, hop]".  The payload travels as one packed int plus the   *)
(* template that renders it: the caller's [payload_codec], or, without *)
(* one, [pp_payload]'s text interned in the log.  A message flow is    *)
(* named by the same two arguments, so a send or a delivery is one     *)
(* record that both views read.                                        *)
(* ------------------------------------------------------------------ *)

let register_payload_renderer r =
  Trace.register_template (fun b _ code _ _ _ _ -> r b code)

(* Endpoints pack as [src lsl 10 lor dst] in one argument; the payload
   template and code follow in the next two. *)
let buf_site b i = Site_id.buf b (Site_id.of_int i)

let buf_src_arrow_dst b sd =
  buf_site b (sd lsr 10);
  Buffer.add_string b " -> ";
  buf_site b (sd land 0x3ff)

(* A flow's span name: its payload, rendered from the record's own
   renderer and code arguments. *)
let flow_name =
  Trace.template_name
    (Trace.register_template (fun b lookup _ rid code _ _ ->
         Trace.render_arg b lookup rid code))

let tmpl_crashed =
  Trace.register_template (fun b _ site _ _ _ _ ->
      buf_site b site;
      Buffer.add_string b " crashed")

let tmpl_recovered =
  Trace.register_template (fun b _ site _ _ _ _ ->
      buf_site b site;
      Buffer.add_string b " recovered")

(* "src -> dst payload: <suffix>" — lost (destination dead) / lost at
   boundary B / suppressed (sender dead) share one shape. *)
let endpoints_payload_suffix suffix =
  Trace.register_template (fun b lookup sd rid code _ _ ->
      buf_src_arrow_dst b sd;
      Buffer.add_char b ' ';
      Trace.render_arg b lookup rid code;
      Buffer.add_string b suffix)

let tmpl_lost_dest_dead = endpoints_payload_suffix ": lost (destination dead)"

let tmpl_lost_at_b = endpoints_payload_suffix ": lost at boundary B"

let tmpl_suppressed = endpoints_payload_suffix ": suppressed (sender dead)"

let tmpl_deliver =
  Trace.register_template (fun b lookup sd rid code _ _ ->
      buf_src_arrow_dst b sd;
      Buffer.add_string b ": deliver ";
      Trace.render_arg b lookup rid code)

let tmpl_ud_lost =
  Trace.register_template (fun b lookup src rid code _ _ ->
      Buffer.add_string b "UD(";
      Trace.render_arg b lookup rid code;
      Buffer.add_string b ") for ";
      buf_site b src;
      Buffer.add_string b ": lost (sender dead)")

let tmpl_bounce =
  Trace.register_template (fun b lookup sd rid code _ _ ->
      Buffer.add_string b "return UD(";
      buf_src_arrow_dst b sd;
      Buffer.add_string b ": ";
      Trace.render_arg b lookup rid code;
      Buffer.add_string b ") to sender")

let tmpl_send =
  Trace.register_template (fun b lookup sd rid code hop _ ->
      buf_src_arrow_dst b sd;
      Buffer.add_string b ": send ";
      Trace.render_arg b lookup rid code;
      Buffer.add_string b " (hop ";
      Vtime.buf b (Vtime.of_int hop);
      Buffer.add_char b ')')

type 'a t = {
  engine : Engine.t;
  log : Trace.t;  (* cached Engine.trace *)
  on : bool;  (* cached Trace.on: skip every record argument when off *)
  n : int;
  t_max : Vtime.t;
  mode : mode;
  partition : Partition.t;
  delay : Delay.t;
  rng : Rng.t;
  net : Trace.topic;  (* "net", interned once: lines' topic, spans' category *)
  renderer : int;  (* the template that renders [enc]'s codes *)
  enc : 'a -> int;
  obs_tid : 'a -> int;  (* payload -> transaction-id track for flow edges *)
  dead : bool array;  (* indexed by site id - 1 *)
  prof : Prof.t option;  (* wall-time attribution bracket, or None *)
  queries : Query_log.t option;  (* where [arrival] records its queries *)
  mutable handler : (Site_id.t -> 'a delivery -> unit) option;
  mutable tap : ('a event -> unit) option;
  mutable sent : int;
  mutable delivered : int;
  mutable bounced : int;
  mutable lost : int;
}

let create ~engine ~n ~t_max ?(mode = Optimistic) ?(partition = Partition.none)
    ?delay ?(seed = 1L) ?pp_payload ?payload_codec ?obs_tid ?prof ?queries () =
  if n < 2 then invalid_arg "Network.create: need at least two sites";
  if Vtime.( < ) t_max (Vtime.of_int 1) then
    invalid_arg "Network.create: t_max must be at least one tick";
  let delay = match delay with Some d -> d | None -> Delay.uniform ~t_max in
  let log = Engine.trace engine in
  let pp_payload =
    match pp_payload with
    | Some pp -> pp
    | None -> fun fmt _ -> Format.pp_print_string fmt "<msg>"
  in
  Option.iter Query_log.clear queries;
  {
    engine;
    log;
    on = Trace.on log;
    net = Trace.topic log "net";
    renderer =
      (match payload_codec with
      | Some ((rid : Trace.template), _) -> (rid :> int)
      | None -> (Trace.text_template :> int));
    enc =
      (match payload_codec with
      | Some (_, enc) -> enc
      | None -> fun p -> Trace.intern log (Format.asprintf "%a" pp_payload p));
    n;
    t_max;
    mode;
    partition;
    delay;
    rng = Rng.create seed;
    obs_tid = (match obs_tid with Some f -> f | None -> fun _ -> 0);
    dead = Array.make n false;
    prof;
    queries;
    handler = None;
    tap = None;
    sent = 0;
    delivered = 0;
    bounced = 0;
    lost = 0;
  }

let set_handler t handler = t.handler <- Some handler

let set_tap t tap = t.tap <- Some tap

let stats t =
  { sent = t.sent; delivered = t.delivered; bounced = t.bounced; lost = t.lost }

let is_dead t site = t.dead.(Site_id.to_int site - 1)

(* A site's crash or recovery: a line and an instant on its track 0. *)
let mark_site t site name tmpl =
  if t.on then
    let s = Site_id.to_int site in
    Trace.instant t.log ~at:(Engine.now t.engine) ~site:s ~tid:0
      ~cat:(t.net :> int) ~name:(Trace.intern t.log name) ~topic:t.net tmpl s 0
      0 0

let crash t site =
  t.dead.(Site_id.to_int site - 1) <- true;
  mark_site t site "crash" tmpl_crashed

let recover t site =
  t.dead.(Site_id.to_int site - 1) <- false;
  mark_site t site "recover" tmpl_recovered

let alive t site = not (is_dead t site)

let dispatch t site delivery =
  match t.handler with
  | None -> failwith "Network: message arrived before set_handler"
  | Some handler -> handler site delivery

(* Profiler brackets around the network entry points ([send] and the
   scheduled hop/bounce callbacks); nested buckets (the protocol work
   behind [dispatch]) suspend this one, so only network self-time is
   charged here.  No-ops when profiling is off. *)
let prof_enter t =
  match t.prof with Some p -> Prof.enter p Prof.Network | None -> ()

let prof_leave t = match t.prof with Some p -> Prof.leave p | None -> ()

(* [tap_emit t (fun at -> ...)] allocated the thunk closure even with
   no tap installed; the matches below only build the event when a tap
   is listening. *)

let pack_sd src dst = (Site_id.to_int src lsl 10) lor Site_id.to_int dst

(* A message's loss as a line under "net" and an instant on [site]'s
   track; call sites guard with [t.on]. *)
let lost_at t ~site name tmpl envelope =
  Trace.instant t.log ~at:(Engine.now t.engine) ~site:(Site_id.to_int site)
    ~tid:(t.obs_tid envelope.payload) ~cat:(t.net :> int)
    ~name:(Trace.intern t.log name) ~topic:t.net tmpl
    (pack_sd envelope.src envelope.dst)
    t.renderer (t.enc envelope.payload) 0

(* The end of [flow] on [site]'s track, as the line [tmpl]. *)
let flow_end t ~site tmpl envelope flow =
  Trace.flow_end t.log ~at:(Engine.now t.engine) ~site:(Site_id.to_int site)
    ~tid:(t.obs_tid envelope.payload) ~flow ~topic:t.net tmpl
    (pack_sd envelope.src envelope.dst)
    t.renderer (t.enc envelope.payload) 0

let deliver t envelope flow =
  if is_dead t envelope.dst then begin
    t.lost <- t.lost + 1;
    if t.on then
      lost_at t ~site:envelope.dst "lost" tmpl_lost_dest_dead envelope;
    match t.tap with
    | None -> ()
    | Some tap -> tap (Lost { env = envelope; at = Engine.now t.engine })
  end
  else begin
    t.delivered <- t.delivered + 1;
    if t.on then flow_end t ~site:envelope.dst tmpl_deliver envelope flow;
    (match t.tap with
    | None -> ()
    | Some tap -> tap (Delivered { env = envelope; at = Engine.now t.engine }));
    dispatch t envelope.dst (Msg envelope)
  end

let bounce t envelope flow =
  prof_enter t;
  (if is_dead t envelope.src then begin
    t.lost <- t.lost + 1;
    if t.on then
      Trace.log3 t.log ~at:(Engine.now t.engine) ~topic:t.net tmpl_ud_lost
        (Site_id.to_int envelope.src)
        t.renderer (t.enc envelope.payload);
    match t.tap with
    | None -> ()
    | Some tap -> tap (Lost { env = envelope; at = Engine.now t.engine })
  end
  else begin
    t.bounced <- t.bounced + 1;
    (* The returned-to-sender edge: the flow that left [src] comes back
       to [src]'s own timeline as UD(msg). *)
    if t.on then flow_end t ~site:envelope.src tmpl_bounce envelope flow;
    (match t.tap with
    | None -> ()
    | Some tap -> tap (Bounced { env = envelope; at = Engine.now t.engine }));
    dispatch t envelope.src (Undeliverable envelope)
  end);
  prof_leave t

(* A message reaches the boundary-or-destination after one hop (<= T).  If
   the partition separates the endpoints at that instant the message
   cannot cross: optimistic mode schedules the return hop (<= T, hence
   the paper's 2T round-trip envelope), pessimistic mode drops it.  This
   is the one place the network reads its partition. *)
let arrival t envelope flow =
  prof_enter t;
  let now = Engine.now t.engine in
  let separated =
    Partition.separated t.partition ~at:now envelope.src envelope.dst
  in
  (match t.queries with
  | None -> ()
  | Some log -> Query_log.add log ~at:now envelope.src envelope.dst separated);
  (if separated then
    match t.mode with
    | Pessimistic -> (
        t.lost <- t.lost + 1;
        if t.on then
          lost_at t ~site:envelope.dst "lost-at-B" tmpl_lost_at_b envelope;
        match t.tap with
        | None -> ()
        | Some tap -> tap (Lost { env = envelope; at = Engine.now t.engine }))
    | Optimistic ->
        let back =
          Delay.sample t.delay ~rng:t.rng ~t_max:t.t_max ~src:envelope.dst
            ~dst:envelope.src
        in
        (* Two closure shapes so the span-off bounce captures exactly
           what it did before spans existed. *)
        let cb =
          if flow = 0 then fun () -> bounce t envelope 0
          else fun () -> bounce t envelope flow
        in
        ignore
          (Engine.schedule t.engine ~rank:Engine.Delivery ~delay:back
             ~label:(Label.Static "net-bounce") cb)
  else deliver t envelope flow);
  prof_leave t

let send t ~src ~dst payload =
  if Site_id.equal src dst then
    invalid_arg "Network.send: a site does not message itself";
  prof_enter t;
  let envelope = { src; dst; payload; sent_at = Engine.now t.engine } in
  (if is_dead t src then begin
    (* A dead site emits nothing: its pending timers may still "fire" in
       the simulation, but the resulting sends evaporate here. *)
    t.lost <- t.lost + 1;
    if t.on then
      Trace.log3 t.log ~at:envelope.sent_at ~topic:t.net tmpl_suppressed
        (pack_sd src dst) t.renderer (t.enc payload);
    match t.tap with
    | None -> ()
    | Some tap -> tap (Lost { env = envelope; at = Engine.now t.engine })
  end
  else begin
  t.sent <- t.sent + 1;
  (match t.tap with
  | None -> ()
  | Some tap -> tap (Sent { env = envelope; at = Engine.now t.engine }));
  let d = Delay.sample t.delay ~rng:t.rng ~t_max:t.t_max ~src ~dst in
  (* Without spans the scheduled closure captures exactly [t] and
     [envelope] — the hot path stays allocation-identical. *)
  let flow =
    if t.on then
      Trace.flow_start t.log ~at:envelope.sent_at ~site:(Site_id.to_int src)
        ~tid:(t.obs_tid payload) ~cat:(t.net :> int) ~name:flow_name
        ~topic:t.net tmpl_send (pack_sd src dst) t.renderer (t.enc payload)
        (Vtime.to_int d)
    else 0
  in
  let cb =
    if flow = 0 then fun () -> arrival t envelope 0
    else fun () -> arrival t envelope flow
  in
  ignore
    (Engine.schedule t.engine ~rank:Engine.Delivery ~delay:d
       ~label:(Label.Static "net-hop") cb)
  end);
  prof_leave t

let broadcast t ~src payload =
  List.iter
    (fun dst -> if not (Site_id.equal src dst) then send t ~src ~dst payload)
    (Site_id.all ~n:t.n)
