type weight = Site_id.t -> int

let one_vote _ = 1

let total_weight weight ~n =
  List.fold_left (fun acc site -> acc + weight site) 0 (Site_id.all ~n)

let commit_quorum weight ~n = (total_weight weight ~n / 2) + 1

let abort_quorum weight ~n = total_weight weight ~n - commit_quorum weight ~n + 1

let tmpl_cooperative =
  Ctx.str_template ~prefix:"cooperative termination (" ~suffix:")"

let tmpl_quorum = Ctx.str_template ~prefix:"quorum termination (" ~suffix:")"

let tmpl_blocked =
  Ctx.int_template ~prefix:"group weight "
    ~suffix:" cannot reach a quorum; blocked, re-polling"

let tmpl_late_answer =
  Ctx.site_template ~prefix:"late state-answer from " ~suffix:" ignored"

(* The rule applied when the poll window closes. *)
type rule = Cooperative | Quorum of weight

(* A site's termination: idle, collecting state answers (quorum counts
   its rounds), or re-preparing the waiters that answered (cooperative
   only). *)
type poll =
  | Idle
  | Collecting of { mutable answers : Types.phase Site_id.Map.t; round : int }
  | Repreparing of { mutable pending : Site_id.Set.t }

(* 3PC's compiled states for one role, and the phase each answers a
   poll with: its final kind, its initial state, or its side of m (w1
   and w wait, p1 and p are prepared). *)
type machine = { c : Fsa_actor.compiled; phases : Types.phase array }

let machine =
  let fsa = Commit_fsa.Catalog.three_phase in
  let classes = Result.get_ok (Fsa_actor.classify fsa) in
  fun role ~vote_yes ->
    let c = Fsa_actor.compile fsa role ~vote_yes in
    let phase (s : Fsa_actor.state) =
      match (s.final, Fsa_actor.side classes role s) with
      | Some Types.Commit, _ -> Types.Ph_committed
      | Some Types.Abort, _ -> Types.Ph_aborted
      | None, Plain -> Types.Ph_initial
      | None, Before_m -> Types.Ph_wait
      | None, After_m -> Types.Ph_prepared
    in
    { c; phases = Array.map phase c.states }

let master = machine Commit_fsa.Machine.Master ~vote_yes:true
and yes_slave = machine Commit_fsa.Machine.Slave ~vote_yes:true
and no_slave = machine Commit_fsa.Machine.Slave ~vote_yes:false

let make rule =
  let name, tmpl_start, window =
    match rule with
    | Cooperative -> ("3pc-skeen", tmpl_cooperative, "term-collect")
    | Quorum _ -> ("quorum", tmpl_quorum, "quorum-window")
  in
  let window_label = Label.Static window in
  let module Actor = struct
    let name = name

    let blocking_by_design =
      match rule with Cooperative -> false | Quorum _ -> true

    type t = {
      ctx : Ctx.t;
      machine : machine;
      timer : Ctx.Timer_slot.slot;
      mutable state : int;  (* index into [machine.c.states] *)
      mutable votes : Site_id.Set.t;  (* senders toward a [collect] edge *)
      mutable poll : poll;
    }

    let state t = t.machine.c.states.(t.state)

    let phase t = t.machine.phases.(t.state)

    let state_name t =
      let id = (state t).id in
      match (t.poll, rule) with
      | Idle, _ -> id
      | Collecting _, Cooperative -> id ^ "/term-collect"
      | Collecting { round; _ }, Quorum _ ->
          Printf.sprintf "%s/quorum-round%d" id round
      | Repreparing _, _ -> id ^ "/term-reprepare"

    (* A running poll is a phase span inside the state span. *)
    let obs_poll t =
      match t.poll with
      | Idle -> ()
      | Collecting _ -> Ctx.obs_phase t.ctx window
      | Repreparing _ -> Ctx.obs_phase t.ctx "term-reprepare"

    (* [enter] keeps the timer: a state entered mid-poll keeps the poll's. *)
    let enter t index =
      t.state <- index;
      t.votes <- Site_id.Set.empty;
      Ctx.obs_state t.ctx (state t).id;
      obs_poll t

    let create ctx role =
      let machine =
        match role with
        | Site.Master_role -> master
        | Site.Slave_role { vote_yes } ->
            if vote_yes then yes_slave else no_slave
      in
      Ctx.obs_state ctx machine.c.states.(machine.c.initial).id;
      { ctx; machine; timer = Ctx.Timer_slot.create ();
        state = machine.c.initial; votes = Site_id.Set.empty; poll = Idle }

    let finish t decision ~reason =
      Ctx.Timer_slot.cancel t.timer;
      t.poll <- Idle;
      enter t
        (if decision = Types.Commit then t.machine.c.commit
         else t.machine.c.abort);
      Ctx.decide t.ctx decision ~reason

    let decide_and_tell t decision ~reason =
      finish t decision ~reason;
      Ctx.broadcast_all t.ctx
        (if decision = Types.Commit then Types.Commit_cmd else Types.Abort_cmd)

    (* ---- the state-inquiry poll ----------------------------------------- *)

    let rec start_poll t ~why =
      match phase t with
      | Types.Ph_committed | Types.Ph_aborted -> ()
      | Types.Ph_initial | Types.Ph_wait | Types.Ph_prepared ->
          Ctx.log_str t.ctx tmpl_start why;
          let round =
            match t.poll with
            | Collecting { round; _ } -> round + 1
            | Idle | Repreparing _ -> 1
          in
          t.poll <- Collecting { answers = Site_id.Map.empty; round };
          obs_poll t;
          Ctx.broadcast_all t.ctx
            (Types.State_inquiry { coordinator = Ctx.self t.ctx });
          (* One round trip gathers every reachable answer. *)
          Ctx.Timer_slot.set t.ctx t.timer ~mult_t:2 ~label:window_label
            (fun () -> close_poll t)

    and close_poll t =
      match t.poll with
      | Idle | Repreparing _ -> ()
      | Collecting { answers; _ } -> (
          let answers = Site_id.Map.add (Ctx.self t.ctx) (phase t) answers in
          let has phase = Site_id.Map.exists (fun _ p -> p = phase) answers in
          let tell decision reason = decide_and_tell t decision ~reason in
          match rule with
          | Cooperative ->
              if has Types.Ph_committed then
                tell Types.Commit "term: a respondent committed"
              else if has Types.Ph_aborted then
                tell Types.Abort "term: a respondent aborted"
              else if not (has Types.Ph_prepared) then
                (* Nobody reachable is prepared, so nobody anywhere can
                   have committed (commitment requires every site
                   prepared) — sound for site failures, unsound across a
                   partition boundary. *)
                tell Types.Abort "term: nobody prepared"
              else reprepare t answers
          | Quorum weight ->
              let n = Ctx.n t.ctx in
              let v_c = commit_quorum weight ~n and v_a = abort_quorum weight ~n in
              let group =
                Site_id.Map.fold (fun site _ acc -> acc + weight site) answers 0
              in
              if has Types.Ph_committed then
                tell Types.Commit "group member committed"
              else if has Types.Ph_aborted then
                tell Types.Abort "group member aborted"
              else if has Types.Ph_prepared && group >= v_c then
                tell Types.Commit
                  (Printf.sprintf
                     "prepared member and group weight %d >= commit quorum %d"
                     group v_c)
              else if (not (has Types.Ph_prepared)) && group >= v_a then
                tell Types.Abort
                  (Printf.sprintf
                     "no prepared member and group weight %d >= abort quorum %d"
                     group v_a)
              else begin
                Ctx.log1 t.ctx tmpl_blocked group;
                Ctx.Timer_slot.set t.ctx t.timer ~mult_t:5
                  ~label:(Label.Static "quorum-retry") (fun () ->
                    start_poll t ~why:"re-poll")
              end)

    (* Someone prepared: bring the waiters forward, then commit. *)
    and reprepare t answers =
      let waiters =
        Site_id.Map.fold
          (fun site phase acc ->
            if phase = Types.Ph_wait && not (Site_id.equal site (Ctx.self t.ctx))
            then Site_id.Set.add site acc
            else acc)
          answers Site_id.Set.empty
      in
      if Site_id.Set.is_empty waiters then
        decide_and_tell t Types.Commit ~reason:"term: prepared, no waiters"
      else begin
        Site_id.Set.iter (fun site -> Ctx.send t.ctx site Types.Prepare) waiters;
        t.poll <- Repreparing { pending = waiters };
        obs_poll t;
        Ctx.Timer_slot.set t.ctx t.timer ~mult_t:2
          ~label:(Label.Static "term-reprepare") (fun () -> reprepared t)
      end

    and reprepared t =
      match t.poll with
      | Repreparing _ ->
          decide_and_tell t Types.Commit ~reason:"term: re-prepared and committed"
      | Idle | Collecting _ -> ()

    (* ---- the three-phase base flow -------------------------------------- *)

    (* Entering a waiting state arms its Fig. 5 timer unless a poll runs.
       Every poll sets the slot, so this timer fires with none running. *)
    let arm t =
      match (phase t, t.poll) with
      | (Types.Ph_wait | Types.Ph_prepared), Idle ->
          let s = state t in
          Ctx.Timer_slot.set t.ctx t.timer ~mult_t:t.machine.c.mult_t
            ~label:s.label (fun () -> start_poll t ~why:(s.id ^ " timeout"))
      | _ -> ()

    (* A slave answers the site that sent it the message it acts on: the
       master, or, for a prepare in w, a terminator re-preparing. *)
    let reply t ~src =
      List.iter (function
        | Fsa_actor.To_slaves msg -> Ctx.broadcast_slaves t.ctx msg
        | Fsa_actor.To_master msg -> Ctx.send t.ctx src msg)

    (* On a final edge the master decides before it tells the slaves; a
       slave that votes no sends it first. *)
    let take t (e : Fsa_actor.edge) ~src =
      match t.machine.c.states.(e.target).final with
      | None ->
          reply t ~src e.sends;
          enter t e.target;
          arm t
      | Some decision when Ctx.is_master t.ctx ->
          finish t decision ~reason:e.reason;
          reply t ~src e.sends
      | Some decision ->
          reply t ~src e.sends;
          finish t decision ~reason:e.reason

    let begin_transaction t =
      Option.iter (take t ~src:Site_id.master) (Fsa_actor.start_edge (state t))

    let on_msg t (envelope : Types.msg Network.envelope) =
      match (envelope.payload, t.poll) with
      (* termination traffic *)
      | Types.State_inquiry { coordinator }, _ ->
          Ctx.send t.ctx coordinator (Types.State_answer { phase = phase t })
      | Types.State_answer { phase }, _ -> (
          match (t.poll, rule) with
          | Collecting c, _ ->
              c.answers <- Site_id.Map.add envelope.src phase c.answers
          | Idle, Quorum _ -> Ctx.log_site t.ctx tmpl_late_answer envelope.src
          | Idle, Cooperative | Repreparing _, _ -> ())
      | Types.Ack, Repreparing r ->
          r.pending <- Site_id.Set.remove envelope.src r.pending;
          if Site_id.Set.is_empty r.pending then reprepared t
      (* decisions, from the master or any terminator *)
      | Types.Commit_cmd, _ when Option.is_none (state t).final ->
          finish t Types.Commit ~reason:"commit command"
      | Types.Abort_cmd, _ when Option.is_none (state t).final ->
          finish t Types.Abort ~reason:"abort command"
      | payload, _ -> (
          match Fsa_actor.edge (state t) payload with
          | Some e when e.collect ->
              t.votes <- Site_id.Set.add envelope.src t.votes;
              if Site_id.Set.cardinal t.votes = Ctx.n t.ctx - 1 then
                take t e ~src:envelope.src
          | Some e -> take t e ~src:envelope.src
          | None -> Ctx.log_ignoring t.ctx payload (state_name t))

    let on_delivery t = function
      | Network.Msg envelope -> on_msg t envelope
      | Network.Undeliverable
          { payload = Types.State_inquiry _ | Types.State_answer _; _ } ->
          (* bounced poll traffic: the window timer bounds the wait *)
          ()
      | Network.Undeliverable envelope -> (
          (* Quorum restarts a running poll; the cooperative terminator
             polls once. *)
          match (t.poll, rule) with
          | Idle, _ | (Collecting _ | Repreparing _), Quorum _ ->
              start_poll t
                ~why:("UD(" ^ Types.msg_tag envelope.payload ^ ") returned")
          | (Collecting _ | Repreparing _), Cooperative -> ())
  end in
  (module Actor : Site.S)

let skeen = make Cooperative

let weighted_quorum weight = make (Quorum weight)

let quorum = weighted_quorum one_vote
