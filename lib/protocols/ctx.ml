(* Templates shared by every protocol actor, registered once at module
   init (see Trace.register_template's domain-safety contract). *)

let tmpl_ignoring =
  Trace.register_template (fun b lookup code state _ _ _ ->
      Buffer.add_string b "ignoring ";
      Types.buf_msg_code b code;
      Buffer.add_string b " in ";
      Buffer.add_string b (lookup state))

let tmpl_ud_ignored =
  Trace.register_template (fun b lookup code state _ _ _ ->
      Buffer.add_string b "UD(";
      Types.buf_msg_code b code;
      Buffer.add_string b ") ignored in ";
      Buffer.add_string b (lookup state))

(* Template factories for the recurring one-argument shapes, so each
   protocol module can register its fixed wording at init time. *)

let msg_str_template ~prefix ~mid ~suffix =
  Trace.register_template (fun b lookup code s _ _ _ ->
      Buffer.add_string b prefix;
      Types.buf_msg_code b code;
      Buffer.add_string b mid;
      Buffer.add_string b (lookup s);
      Buffer.add_string b suffix)

let str_template ~prefix ~suffix =
  Trace.register_template (fun b lookup a0 _ _ _ _ ->
      Buffer.add_string b prefix;
      Buffer.add_string b (lookup a0);
      Buffer.add_string b suffix)

let int_template ~prefix ~suffix =
  Trace.register_template (fun b _ a0 _ _ _ _ ->
      Buffer.add_string b prefix;
      Buffer.add_string b (string_of_int a0);
      Buffer.add_string b suffix)

let int2_template ~prefix ~mid ~suffix =
  Trace.register_template (fun b _ a0 a1 _ _ _ ->
      Buffer.add_string b prefix;
      Buffer.add_string b (string_of_int a0);
      Buffer.add_string b mid;
      Buffer.add_string b (string_of_int a1);
      Buffer.add_string b suffix)

let site_template ~prefix ~suffix =
  Trace.register_template (fun b _ a0 _ _ _ _ ->
      Buffer.add_string b prefix;
      Site_id.buf b (Site_id.of_int a0);
      Buffer.add_string b suffix)

let tmpl_decide =
  Trace.register_template (fun b lookup decision reason _ _ _ ->
      Buffer.add_string b
        (if decision = 0 then "DECIDE commit" else "DECIDE abort");
      if reason >= 0 then begin
        Buffer.add_string b " (";
        Buffer.add_string b (lookup reason);
        Buffer.add_char b ')'
      end)

type t = {
  engine : Engine.t;
  log : Trace.t;  (* cached Engine.trace *)
  on : bool;  (* cached Trace.on: callers guard argument work *)
  topic : Trace.topic;  (* interned "%a" Site_id.pp self — once, not per log *)
  site : int;  (* cached Site_id.to_int self, the span track *)
  n : int;
  t_unit : Vtime.t;
  self : Site_id.t;
  trans_id : int;
  send_fn : Site_id.t -> Types.msg -> unit;
  on_decide : Types.decision -> unit;
  on_reason : string -> unit;
  mutable decision : Types.decision option;
}

let make ~engine ~n ~t_unit ~self ~trans_id ~send ~on_decide ~on_reason
    ?obs_site () =
  let log = Engine.trace engine in
  (* Harnesses that relabel site ids (the cluster's logical<->physical
     rotation) pin the span track to the physical id so state spans land
     on the same timeline as the wire's flow endpoints. *)
  let site = match obs_site with Some s -> s | None -> Site_id.to_int self in
  let on = Trace.on log in
  (* The root span of this site's timeline: everything else (states,
     phases, flow endpoints) nests inside it; the harness's
     [Obs.close_open_spans] seals it when the run stops. *)
  if on then
    Obs.span_begin log ~at:(Engine.now engine) ~site ~tid:trans_id ~cat:"txn"
      "txn";
  {
    engine;
    log;
    on;
    (* The topic string is only built when the log is on, and without
       going through a formatter — contexts are created per (site, txn)
       and the asprintf was a measurable share of the trace-on tax. *)
    topic =
      (if on then
         Trace.topic log
           (if Site_id.is_master self then "master"
            else "site" ^ string_of_int (Site_id.to_int self))
       else Trace.no_topic);
    site;
    n;
    t_unit;
    self;
    trans_id;
    send_fn = send;
    on_decide;
    on_reason;
    decision = None;
  }

let self t = t.self

let n t = t.n

let t_unit t = t.t_unit

let trans_id t = t.trans_id

let now t = Engine.now t.engine

let is_master t = Site_id.is_master t.self

let slaves t = Site_id.slaves ~n:(n t)

(* Each view's flag is read through the log; the cached [on] answers
   first, so a run with both views off pays one load. *)
let tracing t = t.on && Trace.enabled t.log

let intern t s = Trace.intern t.log s

(* Typed binary logging: a few int stores per record.  Callers whose
   arguments cost anything to compute guard on {!tracing} first. *)

let log1 t tmpl a0 = if t.on then Trace.log1 t.log ~at:(now t) ~topic:t.topic tmpl a0

let log2 t tmpl a0 a1 =
  if t.on then Trace.log2 t.log ~at:(now t) ~topic:t.topic tmpl a0 a1

let log_str t tmpl s = if t.on then log1 t tmpl (intern t s)

let log_msg_str t tmpl msg s =
  if t.on then log2 t tmpl (Types.msg_code msg) (intern t s)

let log_site t tmpl site = log1 t tmpl (Site_id.to_int site)

let log_ignoring t msg state = log_msg_str t tmpl_ignoring msg state

let log_ud_ignored t msg state = log_msg_str t tmpl_ud_ignored msg state

let obs_on t = t.on && Obs.enabled t.log

(* Span levels on a site timeline: 1 = the root txn span, 2 = the
   protocol state, 3 = a phase within the state (a probe round, a
   collect window).  Re-entering a level first closes everything at or
   below it, so the nesting can never go ill-formed regardless of how a
   protocol's transitions interleave. *)

let obs_close_to t level =
  while Obs.open_depth t.log ~site:t.site ~tid:t.trans_id > level do
    Obs.span_end t.log ~at:(now t) ~site:t.site ~tid:t.trans_id
  done

let obs_state t name =
  if obs_on t then begin
    obs_close_to t 1;
    Obs.span_begin t.log ~at:(now t) ~site:t.site ~tid:t.trans_id ~cat:"state"
      name
  end

let obs_phase t name =
  if obs_on t then begin
    obs_close_to t 2;
    Obs.span_begin t.log ~at:(now t) ~site:t.site ~tid:t.trans_id ~cat:"phase"
      name
  end

let obs_instant t ?cat name =
  if t.on then Obs.instant t.log ~at:(now t) ~site:t.site ~tid:t.trans_id ?cat name

let send t dst msg = t.send_fn dst msg

let send_master t msg = send t Site_id.master msg

let broadcast_slaves t msg =
  List.iter
    (fun dst -> if not (Site_id.equal dst t.self) then send t dst msg)
    (slaves t)

let broadcast_all t msg =
  List.iter
    (fun dst -> if not (Site_id.equal dst t.self) then send t dst msg)
    (Site_id.all ~n:t.n)

let decided t = t.decision

let decide t ?reason:why decision =
  match t.decision with
  | Some prior when Types.equal_decision prior decision -> ()
  | Some prior ->
      failwith
        (Format.asprintf "%a: decision flip %a -> %a (protocol bug)" Site_id.pp
           t.self Types.pp_decision prior Types.pp_decision decision)
  | None ->
      t.decision <- Some decision;
      (match why with Some w -> t.on_reason w | None -> ());
      if t.on then
        Trace.instant t.log ~at:(now t) ~site:t.site ~tid:t.trans_id
          ~cat:(intern t "decision")
          ~name:
            (intern t
               (match decision with
               | Types.Commit -> "decide:commit"
               | Types.Abort -> "decide:abort"))
          ~topic:t.topic tmpl_decide
          (match decision with Types.Commit -> 0 | Types.Abort -> 1)
          (match why with Some w -> intern t w | None -> -1)
          0 0;
      t.on_decide decision

module Timer_slot = struct
  type slot = { mutable handle : Engine.handle option }

  let create () = { handle = None }

  let cancel slot =
    match slot.handle with
    | Some h ->
        Engine.cancel h;
        slot.handle <- None
    | None -> ()

  let set_ticks t slot ~ticks ~label f =
    cancel slot;
    let handle =
      Engine.schedule t.engine ~rank:Engine.Timer ~delay:ticks ~label (fun () ->
          slot.handle <- None;
          f ())
    in
    slot.handle <- Some handle

  let set t slot ~mult_t ~label f =
    if mult_t <= 0 then invalid_arg "Timer_slot.set: mult_t must be positive";
    let ticks = Vtime.of_int (mult_t * Vtime.to_int (t_unit t)) in
    set_ticks t slot ~ticks ~label f

  let armed slot =
    match slot.handle with
    | Some h -> not (Engine.cancelled h)
    | None -> false
end
