module M = Commit_fsa.Machine
module A = Commit_fsa.Analysis

type variant = Static | Transient

let fact1_reasons =
  [
    "fact1-case1";
    "fact1-case2";
    "fact1-case3";
    "fact1-case4";
    "fact1-case5";
    "fact1-case6";
  ]

let fact2_reasons = [ "fact2-case1"; "fact2-case2"; "fact2-case3" ]

let slave_abort_reasons =
  [ "voted-no"; "abort-cmd"; "w2-expired"; "ud-yes"; "ud-pre-ack" ]

let master_abort_reasons =
  [
    "w1-timeout";
    "ud-xact";
    "no-vote";
    "collect-abort";
    "x1-timeout";
    "ud-pre-prepare";
  ]

(* Trace templates (module-init registration; shared by every functor
   application).  Site sets travel as bitmask ints. *)

let tmpl_collect_no_cross =
  Trace.register_template (fun b _ pb _ _ _ _ ->
      Buffer.add_string b "collect window: N-UD = PB = ";
      Site_id.buf_set_mask b pb;
      Buffer.add_string b " -> no prepare crossed B")

let tmpl_collect_crossed =
  Trace.register_template (fun b _ reached pb _ _ _ ->
      Buffer.add_string b "collect window: N-UD = ";
      Site_id.buf_set_mask b reached;
      Buffer.add_string b " but PB = ";
      Site_id.buf_set_mask b pb;
      Buffer.add_string b " -> a prepare crossed B")

(* ---- Theorem 10: where the rules attach ------------------------------ *)

type classes = {
  m : string;
  before_m : A.site_state list;
  after_m : A.site_state list;
}

let classify (fsa : M.t) =
  let analysis = A.analyze fsa ~n:3 in
  let violated lemma states =
    Error
      (Printf.sprintf "Lemma %d violated at %s" lemma
         (String.concat ", "
            (List.map (Format.asprintf "%a" A.pp_site_state) states)))
  in
  (* m moves a slave into the one waiting state concurrent with a
     commit, p; the master enters p1 by sending m.  Both transitions
     exist: p is entered by some transition (never [Start], which
     validation keeps to the master), and a slave occupies p only once
     the master has sent m. *)
  let waiting = Fsa_actor.waiting_states fsa in
  match
    ( A.lemma1_violations analysis,
      A.lemma2_violations analysis,
      List.filter
        (fun ((role, _) as s) ->
          role = M.Slave && List.mem M.Commit (A.concurrent_kinds analysis s))
        waiting )
  with
  | (_ :: _ as states), _, _ -> violated 1 states
  | [], (_ :: _ as states), _ -> violated 2 states
  | [], [], [ (_, p) ] ->
      let m =
        List.find_map
          (fun (tr : M.transition) ->
            match tr.M.guard with
            | (M.Recv m | M.Recv_all_votes m)
              when String.equal tr.M.target p ->
                Some m
            | M.Recv _ | M.Recv_all_votes _ | M.Start -> None)
          fsa.M.slave.M.transitions
        |> Option.get
      in
      let sends_m (tr : M.transition) =
        List.mem (M.Send_slaves m) tr.M.actions
      in
      let p1 = (List.find sends_m fsa.M.master.M.transitions).M.target in
      let after_m = [ (M.Master, p1); (M.Slave, p) ] in
      let before_m = List.filter (fun s -> not (List.mem s after_m)) waiting in
      Ok { m; before_m; after_m }
  | [], [], _ ->
      Error "no single slave waiting state is concurrent with a commit"

(* ---- the derived actor ----------------------------------------------- *)

(* What a state adds to its FSA edges: nothing (initial and final
   states), the rules before m or the rules from m on. *)
type rule = Plain | Before_m | After_m

type node = {
  s : Fsa_actor.state;
  rule : rule;
  sent : string;  (* the tag of the message sent on entering this state *)
  timeout_reason : string;  (* "<state>-timeout" *)
  ud_reason : string;  (* "ud-<sent>" *)
  sub : string;  (* the state's name during its termination phase *)
}

type machine = { c : Fsa_actor.compiled; nodes : node array }

let machine classes fsa role ~vote_yes =
  let c = Fsa_actor.compile fsa role ~vote_yes in
  let node (s : Fsa_actor.state) =
    let rule =
      if List.mem (role, s.id) classes.after_m then After_m
      else if List.mem (role, s.id) classes.before_m then Before_m
      else Plain
    in
    let sent =
      List.find_map
        (fun (tr : M.transition) ->
          match tr.M.actions with
          | (M.Send_slaves tag | M.Send_master tag) :: _
            when String.equal tr.M.target s.id ->
              Some tag
          | _ -> None)
        (M.machine_of_role fsa role).M.transitions
      |> Option.value ~default:""
    in
    {
      s;
      rule;
      sent;
      timeout_reason = s.id ^ "-timeout";
      ud_reason = "ud-" ^ sent;
      sub =
        (s.id
        ^
        match (role, rule) with
        | M.Master, After_m -> "/collect"
        | M.Slave, Before_m -> "/waiting"
        | M.Slave, After_m -> "/probing"
        | M.Master, Before_m | _, Plain -> "");
    }
  in
  { c; nodes = Array.map node c.states }

module type CONFIG = sig
  val variant : variant

  val fsa : Commit_fsa.Machine.t

  val collect_window_mult : int

  val wait_window_mult : int
end

module Make (C : CONFIG) = struct
  let classes =
    match classify C.fsa with
    | Ok classes -> classes
    | Error why -> invalid_arg ("Termination: " ^ C.fsa.M.name ^ ": " ^ why)

  let master = machine classes C.fsa M.Master ~vote_yes:true

  let yes_slave = machine classes C.fsa M.Slave ~vote_yes:true

  let no_slave = machine classes C.fsa M.Slave ~vote_yes:false

  (* The paper's protocol has one round, the vote, before m (w1 and w);
     over any other FSA the name carries the FSA's ("4pc-termination").
     A slave that cannot commit before m lacks the Fig. 8 transition. *)
  let name =
    let fig8 =
      Array.for_all
        (fun n ->
          n.rule <> Before_m
          || Option.is_some (Fsa_actor.edge n.s Types.Commit_cmd))
        yes_slave.nodes
    in
    (if List.length classes.before_m = 2 then "" else C.fsa.M.name ^ "-")
    ^ (match C.variant with
      | Static -> "termination"
      | Transient -> "termination-transient")
    ^ (if fig8 then "" else "-nofig8")
    ^
    if
      C.collect_window_mult = Timing.collect_window_mult
      && C.wait_window_mult = Timing.wait_window_mult
    then ""
    else Printf.sprintf "-w%d-%d" C.collect_window_mult C.wait_window_mult

  let blocking_by_design = false

  (* A waiting state's termination phase: a slave's 6T wait after a
     timeout before m, its probe after one from m on, and the master's
     collect window after the first UD(m). *)
  type phase = Base | Waiting | Probing | Collect

  type t = {
    ctx : Ctx.t;
    machine : machine;
    timer : Ctx.Timer_slot.slot;
    mutable node : node;
    mutable phase : phase;
    mutable votes : Site_id.Set.t;  (* senders toward a [collect] edge *)
    mutable ud : Site_id.Set.t;  (* the collect window's UD and PB *)
    mutable pb : Site_id.Set.t;
  }

  let create ctx role =
    let machine =
      match role with
      | Site.Master_role -> master
      | Site.Slave_role { vote_yes } -> if vote_yes then yes_slave else no_slave
    in
    let node = machine.nodes.(machine.c.initial) in
    Ctx.obs_state ctx node.s.id;
    {
      ctx;
      machine;
      timer = Ctx.Timer_slot.create ();
      node;
      phase = Base;
      votes = Site_id.Set.empty;
      ud = Site_id.Set.empty;
      pb = Site_id.Set.empty;
    }

  let state_name t = match t.phase with Base -> t.node.s.id | _ -> t.node.sub

  (* Every state change goes through [enter], which cancels the timer;
     so a timer that fires is always the current state's or phase's. *)
  let enter t node =
    Ctx.Timer_slot.cancel t.timer;
    t.node <- node;
    t.phase <- Base;
    t.votes <- Site_id.Set.empty;
    Ctx.obs_state t.ctx node.s.id

  let enter_phase t phase =
    t.phase <- phase;
    Ctx.obs_state t.ctx t.node.sub

  (* The master announces every decision to its slaves, its FSA's
     included; a slave that acts for its group ([tell]) tells every
     site: it does not know the boundary, and copies addressed across B
     bounce and are ignored. *)
  let decide t decision ~reason ~tell =
    let final, command =
      match decision with
      | Types.Commit -> (t.machine.c.commit, Types.Commit_cmd)
      | Types.Abort -> (t.machine.c.abort, Types.Abort_cmd)
    in
    enter t t.machine.nodes.(final);
    if Ctx.is_master t.ctx then Ctx.broadcast_slaves t.ctx command
    else if tell then Ctx.broadcast_all t.ctx command;
    Ctx.decide t.ctx decision ~reason

  let close_collect_window t =
    (* The paper's test N - UD = PB, with N read as the slave set (see
       DESIGN.md): the probes received came exactly from the slaves
       whose prepare was delivered iff no prepare crossed boundary B. *)
    let slaves = Site_id.Set.of_list (Ctx.slaves t.ctx) in
    let reached = Site_id.Set.diff slaves t.ud in
    if Site_id.Set.equal reached t.pb then begin
      if Ctx.tracing t.ctx then
        Ctx.log1 t.ctx tmpl_collect_no_cross (Site_id.set_to_mask t.pb);
      decide t Types.Abort ~reason:"collect-abort" ~tell:true
    end
    else begin
      if Ctx.tracing t.ctx then
        Ctx.log2 t.ctx tmpl_collect_crossed
          (Site_id.set_to_mask reached)
          (Site_id.set_to_mask t.pb);
      decide t Types.Commit ~reason:"fact2-case3" ~tell:true
    end

  let probe t =
    Ctx.send_master t.ctx
      (Types.Probe { trans_id = Ctx.trans_id t.ctx; slave = Ctx.self t.ctx });
    enter_phase t Probing;
    Ctx.obs_phase t.ctx "probe-round";
    Ctx.obs_instant t.ctx ~cat:"probe" "probe-sent";
    match C.variant with
    | Static -> ()
    | Transient ->
        Ctx.Timer_slot.set t.ctx t.timer ~mult_t:Timing.probe_window_mult
          ~label:(Label.Static "probe-window") (fun () ->
            (* Section 6: only case 3.2.2.2 keeps a probing slave waiting
               beyond 5T, and in that case the master has committed. *)
            decide t Types.Commit ~reason:"transient-5t-commit" ~tell:false)

  let timeout t =
    match (t.node.rule, Ctx.is_master t.ctx) with
    | Before_m, true ->
        (* Idea 2: no prepare was ever generated, so no slave in G2 can
           commit; aborting G1 is safe. *)
        decide t Types.Abort ~reason:t.node.timeout_reason ~tell:true
    | After_m, true ->
        (* Idea 3: the timer outlived every possible UD(m) return, so
           every m was delivered and every slave will commit. *)
        decide t Types.Commit ~reason:"fact2-case2" ~tell:true
    | Before_m, false ->
        (* Wait 6T for a command (Fig. 7); with none, no commit exists
           anywhere reachable, and Fig. 7's bound makes aborting safe. *)
        enter_phase t Waiting;
        Ctx.Timer_slot.set t.ctx t.timer ~mult_t:C.wait_window_mult
          ~label:(Label.Static "w2-window") (fun () ->
            decide t Types.Abort ~reason:"w2-expired" ~tell:false)
    | After_m, false -> probe t
    | Plain, _ -> ()

  (* A base transition into a waiting state arms its Fig. 5 timer. *)
  let advance t (e : Fsa_actor.edge) =
    let next = t.machine.nodes.(e.target) in
    Fsa_actor.send t.ctx e.sends;
    enter t next;
    if next.rule <> Plain then
      Ctx.Timer_slot.set t.ctx t.timer ~mult_t:t.machine.c.mult_t
        ~label:next.s.label (fun () -> timeout t)

  (* A decision of the FSA's own carries the FACT tag of its case.  A
     slave sends its no vote before it aborts; the master's command is
     the one [decide] announces. *)
  let take t (e : Fsa_actor.edge) (envelope : Types.msg Network.envelope) =
    match t.machine.nodes.(e.target).s.final with
    | None -> advance t e
    | Some decision ->
        let reason =
          match (decision, envelope.payload) with
          | Types.Commit, _ when Ctx.is_master t.ctx -> "fact2-case1"
          | Types.Commit, _ when Site_id.is_master envelope.src -> "fact1-case1"
          | Types.Commit, _ -> "fact1-case6"
          | Types.Abort, _ when Ctx.is_master t.ctx -> "no-vote"
          | Types.Abort, Types.Abort_cmd -> "abort-cmd"
          | Types.Abort, _ -> "voted-no"
        in
        if not (Ctx.is_master t.ctx) then Fsa_actor.send t.ctx e.sends;
        decide t decision ~reason ~tell:false

  let begin_transaction t =
    match Fsa_actor.start_edge t.node.s with Some e -> advance t e | None -> ()

  let on_msg t (envelope : Types.msg Network.envelope) =
    match (t.phase, envelope.payload) with
    | Base, payload -> (
        match Fsa_actor.edge t.node.s payload with
        | Some e when e.collect ->
            t.votes <- Site_id.Set.add envelope.src t.votes;
            if Site_id.Set.cardinal t.votes = Ctx.n t.ctx - 1 then
              take t e envelope
        | Some e -> take t e envelope
        | None -> Ctx.log_ignoring t.ctx payload t.node.s.id)
    | (Waiting | Probing), Types.Commit_cmd ->
        decide t Types.Commit
          ~reason:(if t.phase = Waiting then "fact1-case2" else "fact1-case4")
          ~tell:false
    | (Waiting | Probing), Types.Abort_cmd ->
        decide t Types.Abort ~reason:"abort-cmd" ~tell:false
    | Collect, Types.Probe { slave; _ } ->
        Ctx.obs_instant t.ctx ~cat:"probe" "probe-collected";
        t.pb <- Site_id.Set.add slave t.pb
    | (Waiting | Probing | Collect), payload ->
        Ctx.log_ignoring t.ctx payload t.node.sub

  (* The rules read the bounce of the message a state was entered by
     sending, and a probing slave's bounced probe. *)
  let on_ud t (envelope : Types.msg Network.envelope) =
    let own = String.equal (Types.msg_tag envelope.payload) t.node.sent in
    match (t.phase, t.node.rule, envelope.payload) with
    | Base, Before_m, _ when own ->
        (* Before m some site never answers, so no prepare exists (or
           will): abort.  A slave whose vote bounced aborts its side. *)
        decide t Types.Abort ~reason:t.node.ud_reason ~tell:true
    | (Base | Collect), After_m, _ when own && Ctx.is_master t.ctx ->
        (* The first UD(m) opens the 5T collection window, a phase of p1
           (the master enters p1 once, so UD and PB start empty). *)
        Ctx.obs_instant t.ctx ~cat:"probe" t.node.ud_reason;
        t.ud <- Site_id.Set.add envelope.dst t.ud;
        if t.phase = Base then begin
          enter_phase t Collect;
          Ctx.obs_phase t.ctx "collect-window";
          Ctx.Timer_slot.set t.ctx t.timer ~mult_t:C.collect_window_mult
            ~label:(Label.Static "collect-window") (fun () ->
              close_collect_window t)
        end
    | (Base | Probing), After_m, _ when own ->
        (* Idea 6(1): I hold a prepare and my ack bounced — I am in G2
           and responsible for committing it. *)
        decide t Types.Commit ~reason:"fact1-case5" ~tell:true
    | Probing, _, Types.Probe _ ->
        (* Idea 6(2): my probe bounced — same conclusion. *)
        decide t Types.Commit ~reason:"fact1-case3" ~tell:true
    | _ -> Ctx.log_ud_ignored t.ctx envelope.payload (state_name t)

  let on_delivery t = function
    | Network.Msg envelope -> on_msg t envelope
    | Network.Undeliverable envelope -> on_ud t envelope
end

(* The paper's settings: modified 3PC (Fig. 8) with the derived 5T/6T
   windows, static partitions. *)
module Paper = struct
  let variant = Static

  let fsa = Commit_fsa.Catalog.modified_three_phase

  let collect_window_mult = Timing.collect_window_mult

  let wait_window_mult = Timing.wait_window_mult
end

module Static = Make (Paper)

module Transient = Make (struct
  include Paper

  let variant = Transient
end)

module Static_without_fig8 = Make (struct
  include Paper

  let fsa = Commit_fsa.Catalog.three_phase
end)

module Four_phase = Make (struct
  include Paper

  let fsa = Commit_fsa.Catalog.four_phase
end)

module With_windows (W : sig
  val collect_window_mult : int

  val wait_window_mult : int
end) =
  Make (struct
    include Paper
    include W
  end)
