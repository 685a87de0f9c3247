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

let tmpl_probe_no_partition =
  Ctx.site_template ~prefix:"probe from "
    ~suffix:" in p1 ignored (no partition detected)"

module type CONFIG = sig
  val variant : variant

  val four_phase : bool

  val fig8_w_commit : bool

  val collect_window_mult : int

  val wait_window_mult : int
end

module Make (V : CONFIG) = struct
  let name =
    (if V.four_phase then "4pc-" else "")
    ^ (match V.variant with
      | Static -> "termination"
      | Transient -> "termination-transient")
    ^ (if V.fig8_w_commit then "" else "-nofig8")
    ^
    if
      V.collect_window_mult = Timing.collect_window_mult
      && V.wait_window_mult = Timing.wait_window_mult
    then ""
    else Printf.sprintf "-w%d-%d" V.collect_window_mult V.wait_window_mult

  let blocking_by_design = false

  type master_state =
    | M_initial  (** q1 *)
    | M_wait of { yes : Site_id.Set.t }  (** w1, timer 2T *)
    | M_buffer of { pre_acks : Site_id.Set.t }  (** x1 (4PC), timer 2T *)
    | M_prepared of { acks : Site_id.Set.t }  (** p1, timer 2T *)
    | M_collect of { ud : Site_id.Set.t; pb : Site_id.Set.t }
        (** p1 after the first UD(prepare); 5T collection window *)
    | M_committed
    | M_aborted

  type slave_state =
    | S_initial  (** q *)
    | S_wait  (** w, timer 3T *)
    | S_buffer  (** x (4PC), timer 3T *)
    | S_wait2
        (** w or x after timeout; 6T window for a command (Fig. 7) *)
    | S_prepared  (** p, timer 3T *)
    | S_probing  (** p after timeout; probe sent (5T window if transient) *)
    | S_committed
    | S_aborted

  type machine =
    | Master of master_state
    | Slave of { vote_yes : bool; state : slave_state }

  type t = { ctx : Ctx.t; timer : Ctx.Timer_slot.slot; mutable machine : machine }

  let create ctx role =
    let timer = Ctx.Timer_slot.create () in
    match role with
    | Site.Master_role ->
        Ctx.obs_state ctx "q1";
        { ctx; timer; machine = Master M_initial }
    | Site.Slave_role { vote_yes } ->
        Ctx.obs_state ctx "q";
        { ctx; timer; machine = Slave { vote_yes; state = S_initial } }

  let state_name t =
    match t.machine with
    | Master M_initial -> "q1"
    | Master (M_wait _) -> "w1"
    | Master (M_buffer _) -> "x1"
    | Master (M_prepared _) -> "p1"
    | Master (M_collect _) -> "p1/collect"
    | Master M_committed -> "c1"
    | Master M_aborted -> "a1"
    | Slave { state = S_initial; _ } -> "q"
    | Slave { state = S_wait; _ } -> "w"
    | Slave { state = S_buffer; _ } -> "x"
    | Slave { state = S_wait2; _ } -> "w/waiting"
    | Slave { state = S_prepared; _ } -> "p"
    | Slave { state = S_probing; _ } -> "p/probing"
    | Slave { state = S_committed; _ } -> "c"
    | Slave { state = S_aborted; _ } -> "a"

  (* ---- master ---------------------------------------------------------- *)

  let master_decide t decision ~reason =
    Ctx.Timer_slot.cancel t.timer;
    t.machine <-
      Master
        (match decision with Types.Commit -> M_committed | Types.Abort -> M_aborted);
    Ctx.obs_state t.ctx
      (match decision with Types.Commit -> "c1" | Types.Abort -> "a1");
    Ctx.broadcast_slaves t.ctx
      (match decision with
      | Types.Commit -> Types.Commit_cmd
      | Types.Abort -> Types.Abort_cmd);
    Ctx.decide t.ctx decision ~reason

  let begin_transaction t =
    match t.machine with
    | Master M_initial ->
        Ctx.broadcast_slaves t.ctx Types.Xact;
        t.machine <- Master (M_wait { yes = Site_id.Set.empty });
        Ctx.obs_state t.ctx "w1";
        Ctx.Timer_slot.set t.ctx t.timer ~mult_t:Timing.master_timeout_mult
          ~label:(Label.Static "w1-timeout") (fun () ->
            match t.machine with
            | Master (M_wait _) ->
                (* Idea 2: no prepare was ever generated, so no slave in
                   G2 can commit; aborting G1 is safe. *)
                master_decide t Types.Abort ~reason:"w1-timeout"
            | Master _ | Slave _ -> ())
    | Master _ | Slave _ -> ()

  (* Sending m: every slave voted (and, in 4PC, pre-acked). *)
  let send_prepare t =
    Ctx.broadcast_slaves t.ctx Types.Prepare;
    t.machine <- Master (M_prepared { acks = Site_id.Set.empty });
    Ctx.obs_state t.ctx "p1";
    Ctx.Timer_slot.set t.ctx t.timer ~mult_t:Timing.master_timeout_mult
      ~label:(Label.Static "p1-timeout") (fun () ->
        match t.machine with
        | Master (M_prepared _) ->
            (* Idea 3: the timer outlived every possible UD(prepare)
               return, so every prepare was delivered and every slave
               will commit. *)
            master_decide t Types.Commit ~reason:"fact2-case2"
        | Master _ | Slave _ -> ())

  (* The four-phase round before m; while the master waits in x1 no
     prepare exists, so aborting is still safe (idea 2). *)
  let send_pre_prepare t =
    Ctx.broadcast_slaves t.ctx Types.Pre_prepare;
    t.machine <- Master (M_buffer { pre_acks = Site_id.Set.empty });
    Ctx.obs_state t.ctx "x1";
    Ctx.Timer_slot.set t.ctx t.timer ~mult_t:Timing.master_timeout_mult
      ~label:(Label.Static "x1-timeout") (fun () ->
        match t.machine with
        | Master (M_buffer _) ->
            master_decide t Types.Abort ~reason:"x1-timeout"
        | Master _ | Slave _ -> ())

  let close_collect_window t ~ud ~pb =
    (* The paper's test N - UD = PB, with N read as the slave set (see
       DESIGN.md): the probes received came exactly from the slaves
       whose prepare was delivered iff no prepare crossed boundary B. *)
    let slaves = Site_id.Set.of_list (Ctx.slaves t.ctx) in
    let reached = Site_id.Set.diff slaves ud in
    if Site_id.Set.equal reached pb then begin
      if Ctx.tracing t.ctx then
        Ctx.log1 t.ctx tmpl_collect_no_cross (Site_id.set_to_mask pb);
      master_decide t Types.Abort ~reason:"collect-abort"
    end
    else begin
      if Ctx.tracing t.ctx then
        Ctx.log2 t.ctx tmpl_collect_crossed
          (Site_id.set_to_mask reached)
          (Site_id.set_to_mask pb);
      master_decide t Types.Commit ~reason:"fact2-case3"
    end

  let enter_collect t ~ud ~pb =
    t.machine <- Master (M_collect { ud; pb });
    (* The 5T collection window is a phase of p1, not a new protocol
       state — the paper keeps the master "in p1" while it gathers
       probes and UD(prepare)s. *)
    Ctx.obs_state t.ctx "p1/collect";
    Ctx.obs_phase t.ctx "collect-window";
    Ctx.Timer_slot.set t.ctx t.timer ~mult_t:V.collect_window_mult
      ~label:(Label.Static "collect-window") (fun () ->
        match t.machine with
        | Master (M_collect { ud; pb }) -> close_collect_window t ~ud ~pb
        | Master _ | Slave _ -> ())

  let on_master_msg t state (envelope : Types.msg Network.envelope) =
    match (state, envelope.payload) with
    | M_wait { yes }, Types.Yes ->
        let yes = Site_id.Set.add envelope.src yes in
        if Site_id.Set.cardinal yes = Ctx.n t.ctx - 1 then
          if V.four_phase then send_pre_prepare t else send_prepare t
        else t.machine <- Master (M_wait { yes })
    | M_wait _, Types.No -> master_decide t Types.Abort ~reason:"no-vote"
    | M_buffer { pre_acks }, Types.Pre_ack ->
        let pre_acks = Site_id.Set.add envelope.src pre_acks in
        if Site_id.Set.cardinal pre_acks = Ctx.n t.ctx - 1 then send_prepare t
        else t.machine <- Master (M_buffer { pre_acks })
    | M_prepared { acks }, Types.Ack ->
        let acks = Site_id.Set.add envelope.src acks in
        if Site_id.Set.cardinal acks = Ctx.n t.ctx - 1 then
          master_decide t Types.Commit ~reason:"fact2-case1"
        else t.machine <- Master (M_prepared { acks })
    | M_collect { ud; pb }, Types.Probe { slave; _ } ->
        Ctx.obs_instant t.ctx ~cat:"probe" "probe-collected";
        t.machine <- Master (M_collect { ud; pb = Site_id.Set.add slave pb })
    | M_prepared _, Types.Probe _ ->
        (* A slave's p-timer fired early on a fast path with no
           partition; it will receive the commit command in due course. *)
        Ctx.log_site t.ctx tmpl_probe_no_partition envelope.src
    | (M_initial | M_committed | M_aborted), _
    | M_wait _, _
    | M_buffer _, _
    | M_prepared _, _
    | M_collect _, _ ->
        Ctx.log_ignoring t.ctx envelope.payload (state_name t)

  let on_master_ud t state (envelope : Types.msg Network.envelope) =
    match (state, envelope.payload) with
    | M_wait _, Types.Xact ->
        (* The transaction never reached some slave: that slave never
           voted, so nobody can commit. *)
        master_decide t Types.Abort ~reason:"ud-xact"
    | M_buffer _, Types.Pre_prepare ->
        (* Still before m: some slave will never pre-ack, so no prepare
           will be sent. *)
        master_decide t Types.Abort ~reason:"ud-pre-prepare"
    | M_prepared _, Types.Prepare ->
        Ctx.obs_instant t.ctx ~cat:"probe" "ud-prepare";
        enter_collect t ~ud:(Site_id.Set.singleton envelope.dst) ~pb:Site_id.Set.empty
    | M_collect { ud; pb }, Types.Prepare ->
        Ctx.obs_instant t.ctx ~cat:"probe" "ud-prepare";
        t.machine <- Master (M_collect { ud = Site_id.Set.add envelope.dst ud; pb })
    | ( ( M_initial | M_wait _ | M_buffer _ | M_prepared _ | M_collect _
        | M_committed | M_aborted ),
        _ ) ->
        Ctx.log_ud_ignored t.ctx envelope.payload (state_name t)

  (* ---- slaves ----------------------------------------------------------- *)

  let slave_decide t ~vote_yes decision ~reason ~tell =
    Ctx.Timer_slot.cancel t.timer;
    t.machine <-
      Slave
        {
          vote_yes;
          state =
            (match decision with
            | Types.Commit -> S_committed
            | Types.Abort -> S_aborted);
        };
    Ctx.obs_state t.ctx
      (match decision with Types.Commit -> "c" | Types.Abort -> "a");
    if tell then
      (* "It will send to all the slaves in G2": the slave does not know
         the boundary, so it sends to everyone; copies addressed across
         B bounce and are ignored. *)
      Ctx.broadcast_all t.ctx
        (match decision with
        | Types.Commit -> Types.Commit_cmd
        | Types.Abort -> Types.Abort_cmd);
    Ctx.decide t.ctx decision ~reason

  let set_slave t ~vote_yes state =
    t.machine <- Slave { vote_yes; state };
    Ctx.obs_state t.ctx (state_name t)

  let arm_slave_timer t ~mult_t ~label ~expected f =
    Ctx.Timer_slot.set t.ctx t.timer ~mult_t ~label (fun () ->
        match t.machine with
        | Slave { state; vote_yes } when state = expected -> f ~vote_yes
        | Slave _ | Master _ -> ())

  let enter_wait2 t ~vote_yes =
    set_slave t ~vote_yes S_wait2;
    arm_slave_timer t ~mult_t:V.wait_window_mult ~label:(Label.Static "w2-window")
      ~expected:S_wait2 (fun ~vote_yes ->
        (* 6T passed with no command: no commit exists anywhere
           reachable; abort (Fig. 7's bound makes this safe). *)
        slave_decide t ~vote_yes Types.Abort ~reason:"w2-expired" ~tell:false)

  let enter_probing t ~vote_yes =
    Ctx.send_master t.ctx
      (Types.Probe { trans_id = Ctx.trans_id t.ctx; slave = Ctx.self t.ctx });
    set_slave t ~vote_yes S_probing;
    Ctx.obs_phase t.ctx "probe-round";
    Ctx.obs_instant t.ctx ~cat:"probe" "probe-sent";
    match V.variant with
    | Static -> Ctx.Timer_slot.cancel t.timer
    | Transient ->
        arm_slave_timer t ~mult_t:Timing.probe_window_mult ~label:(Label.Static "probe-window")
          ~expected:S_probing (fun ~vote_yes ->
            (* Section 6: only case 3.2.2.2 keeps a probing slave waiting
               beyond 5T, and in that case the master has committed. *)
            slave_decide t ~vote_yes Types.Commit ~reason:"transient-5t-commit"
              ~tell:false)

  let commit_reason ~state (envelope : Types.msg Network.envelope) =
    match state with
    | S_wait2 -> "fact1-case2"
    | S_probing -> "fact1-case4"
    | S_wait | S_buffer | S_prepared ->
        if Site_id.is_master envelope.src then "fact1-case1" else "fact1-case6"
    | S_initial | S_committed | S_aborted -> "fact1-unexpected"

  let on_slave_msg t ~vote_yes state (envelope : Types.msg Network.envelope) =
    match (state, envelope.payload) with
    | S_initial, Types.Xact ->
        if vote_yes then begin
          Ctx.send_master t.ctx Types.Yes;
          set_slave t ~vote_yes S_wait;
          arm_slave_timer t ~mult_t:Timing.slave_timeout_mult ~label:(Label.Static "w-timeout")
            ~expected:S_wait (fun ~vote_yes -> enter_wait2 t ~vote_yes)
        end
        else begin
          Ctx.send_master t.ctx Types.No;
          slave_decide t ~vote_yes Types.Abort ~reason:"voted-no" ~tell:false
        end
    | S_wait, Types.Pre_prepare ->
        (* Only the master chooses three or four phases; a slave follows
           whichever round reaches it.  The prepare is m either way. *)
        Ctx.send_master t.ctx Types.Pre_ack;
        set_slave t ~vote_yes S_buffer;
        arm_slave_timer t ~mult_t:Timing.slave_timeout_mult ~label:(Label.Static "x-timeout")
          ~expected:S_buffer (fun ~vote_yes -> enter_wait2 t ~vote_yes)
    | (S_wait | S_buffer), Types.Prepare ->
        Ctx.send_master t.ctx Types.Ack;
        set_slave t ~vote_yes S_prepared;
        arm_slave_timer t ~mult_t:Timing.slave_timeout_mult ~label:(Label.Static "p-timeout")
          ~expected:S_prepared (fun ~vote_yes -> enter_probing t ~vote_yes)
    | S_wait, Types.Commit_cmd when not V.fig8_w_commit ->
        (* Ablation: the unmodified 3PC slave of Fig. 3 has no w -> c
           transition; it drops the relayed commit — which may be the
           only commit it will ever receive ("a fly in the ointment"). *)
        Ctx.log_text t.ctx "commit in w dropped (Fig. 8 modification disabled)"
    | S_wait2, Types.Prepare ->
        (* Cannot happen within the model's timing envelope: a prepare
           arrives at most 3T after the slave entered w (or x).  Logged
           for the failure-injection tests. *)
        Ctx.log_text t.ctx "late prepare ignored in w/waiting"
    | ( (S_wait | S_buffer | S_wait2 | S_prepared | S_probing | S_initial),
        Types.Commit_cmd ) ->
        slave_decide t ~vote_yes Types.Commit
          ~reason:(commit_reason ~state envelope)
          ~tell:false
    | ( (S_wait | S_buffer | S_wait2 | S_prepared | S_probing | S_initial),
        Types.Abort_cmd ) ->
        slave_decide t ~vote_yes Types.Abort ~reason:"abort-cmd" ~tell:false
    | ( ( S_initial | S_wait | S_buffer | S_wait2 | S_prepared | S_probing
        | S_committed | S_aborted ),
        _ ) ->
        Ctx.log_ignoring t.ctx envelope.payload (state_name t)

  let on_slave_ud t ~vote_yes state (envelope : Types.msg Network.envelope) =
    match (state, envelope.payload) with
    | S_wait, Types.Yes ->
        (* My vote never reached the master, so the master cannot have
           collected all votes and no prepare exists: abort my side. *)
        slave_decide t ~vote_yes Types.Abort ~reason:"ud-yes" ~tell:true
    | S_buffer, Types.Pre_ack ->
        (* The same before m in 4PC: the master cannot collect every
           pre-ack, so it never sends a prepare. *)
        slave_decide t ~vote_yes Types.Abort ~reason:"ud-pre-ack" ~tell:true
    | (S_prepared | S_probing), Types.Ack ->
        (* Idea 6(1): I hold a prepare and my ack bounced — I am in G2
           and responsible for committing it. *)
        slave_decide t ~vote_yes Types.Commit ~reason:"fact1-case5" ~tell:true
    | S_probing, Types.Probe _ ->
        (* Idea 6(2): my probe bounced — same conclusion. *)
        slave_decide t ~vote_yes Types.Commit ~reason:"fact1-case3" ~tell:true
    | ( ( S_initial | S_wait | S_buffer | S_wait2 | S_prepared | S_probing
        | S_committed | S_aborted ),
        _ ) ->
        Ctx.log_ud_ignored t.ctx envelope.payload (state_name t)

  let on_delivery t delivery =
    match (t.machine, delivery) with
    | Master state, Network.Msg envelope -> on_master_msg t state envelope
    | Master state, Network.Undeliverable envelope ->
        on_master_ud t state envelope
    | Slave { vote_yes; state }, Network.Msg envelope ->
        on_slave_msg t ~vote_yes state envelope
    | Slave { vote_yes; state }, Network.Undeliverable envelope ->
        on_slave_ud t ~vote_yes state envelope
end

(* The paper's settings: modified 3PC (Fig. 8) with the derived 5T/6T
   windows, static partitions. *)
module Paper = struct
  let variant = Static

  let four_phase = false

  let fig8_w_commit = true

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

  let fig8_w_commit = false
end)

module Four_phase = Make (struct
  include Paper

  let four_phase = true
end)

module With_windows (W : sig
  val collect_window_mult : int

  val wait_window_mult : int
end) =
  Make (struct
    include Paper
    include W
  end)
