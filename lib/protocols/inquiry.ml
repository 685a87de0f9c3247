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
      role : Site.role;
      timer : Ctx.Timer_slot.slot;
      mutable phase : Types.phase;
      mutable replies : Site_id.Set.t;  (* the master's yes votes or acks *)
      mutable poll : poll;
    }

    (* Literals, so a state change with spans off builds no string. *)
    let base_name t =
      let master = Ctx.is_master t.ctx in
      match t.phase with
      | Types.Ph_initial -> if master then "q1" else "q"
      | Types.Ph_wait -> if master then "w1" else "w"
      | Types.Ph_prepared -> if master then "p1" else "p"
      | Types.Ph_committed -> if master then "c1" else "c"
      | Types.Ph_aborted -> if master then "a1" else "a"

    let state_name t =
      match (t.poll, rule) with
      | Idle, _ -> base_name t
      | Collecting _, Cooperative -> base_name t ^ "/term-collect"
      | Collecting { round; _ }, Quorum _ ->
          Printf.sprintf "%s/quorum-round%d" (base_name t) round
      | Repreparing _, _ -> base_name t ^ "/term-reprepare"

    (* A running poll is a phase span inside the state span. *)
    let obs_poll t =
      match t.poll with
      | Idle -> ()
      | Collecting _ -> Ctx.obs_phase t.ctx window
      | Repreparing _ -> Ctx.obs_phase t.ctx "term-reprepare"

    let enter t phase =
      t.phase <- phase;
      t.replies <- Site_id.Set.empty;
      Ctx.obs_state t.ctx (base_name t);
      obs_poll t

    let create ctx role =
      let t =
        { ctx; role; timer = Ctx.Timer_slot.create (); phase = Types.Ph_initial;
          replies = Site_id.Set.empty; poll = Idle }
      in
      Ctx.obs_state ctx (base_name t);
      t

    let finish t decision ~reason =
      Ctx.Timer_slot.cancel t.timer;
      t.poll <- Idle;
      enter t
        (if decision = Types.Commit then Types.Ph_committed else Types.Ph_aborted);
      Ctx.decide t.ctx decision ~reason

    let decide_and_tell t decision ~reason =
      finish t decision ~reason;
      Ctx.broadcast_all t.ctx
        (if decision = Types.Commit then Types.Commit_cmd else Types.Abort_cmd)

    (* ---- the state-inquiry poll ----------------------------------------- *)

    let rec start_poll t ~why =
      match t.phase with
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
          let answers = Site_id.Map.add (Ctx.self t.ctx) t.phase answers in
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

    let arm t ~mult_t ~label =
      Ctx.Timer_slot.set t.ctx t.timer ~mult_t ~label (fun () ->
          match t.poll with
          | Idle ->
              (* forced only when the timeout actually fires *)
              start_poll t ~why:(Label.force label ^ " timeout")
          | Collecting _ | Repreparing _ -> ())

    let begin_transaction t =
      match (t.role, t.phase) with
      | Site.Master_role, Types.Ph_initial ->
          Ctx.broadcast_slaves t.ctx Types.Xact;
          enter t Types.Ph_wait;
          arm t ~mult_t:2 ~label:(Label.Static "w1")
      | _ -> ()

    (* The master collects n - 1 replies: yes votes in w1, then acks in
       p1 until it decides or re-prepares. *)
    let collect t (envelope : Types.msg Network.envelope) =
      t.replies <- Site_id.Set.add envelope.src t.replies;
      Site_id.Set.cardinal t.replies = Ctx.n t.ctx - 1

    let on_msg t (envelope : Types.msg Network.envelope) =
      match (t.role, t.phase, envelope.payload) with
      (* master, failure-free flow *)
      | Site.Master_role, Types.Ph_wait, Types.Yes ->
          if collect t envelope then begin
            Ctx.broadcast_slaves t.ctx Types.Prepare;
            enter t Types.Ph_prepared;
            arm t ~mult_t:2 ~label:(Label.Static "p1")
          end
      | Site.Master_role, Types.Ph_wait, Types.No ->
          decide_and_tell t Types.Abort ~reason:"received a no vote"
      (* slave, failure-free flow *)
      | Site.Slave_role { vote_yes }, Types.Ph_initial, Types.Xact ->
          if vote_yes then begin
            Ctx.send_master t.ctx Types.Yes;
            enter t Types.Ph_wait;
            arm t ~mult_t:3 ~label:(Label.Static "w")
          end
          else begin
            Ctx.send_master t.ctx Types.No;
            finish t Types.Abort ~reason:"voted no"
          end
      | _, Types.Ph_wait, Types.Prepare -> (
          (* Acknowledge to whoever sent the prepare: the master in the
             failure-free flow, a terminator re-preparing. *)
          Ctx.send t.ctx envelope.src Types.Ack;
          enter t Types.Ph_prepared;
          match t.poll with
          | Idle -> arm t ~mult_t:3 ~label:(Label.Static "p")
          | Collecting _ | Repreparing _ -> ())
      (* decisions, from the master or any terminator *)
      | _, (Types.Ph_initial | Types.Ph_wait | Types.Ph_prepared), Types.Commit_cmd ->
          finish t Types.Commit ~reason:"commit command"
      | _, (Types.Ph_initial | Types.Ph_wait | Types.Ph_prepared), Types.Abort_cmd ->
          finish t Types.Abort ~reason:"abort command"
      (* termination traffic *)
      | _, _, Types.State_inquiry { coordinator } ->
          Ctx.send t.ctx coordinator (Types.State_answer { phase = t.phase })
      | _, _, Types.State_answer { phase } -> (
          match (t.poll, rule) with
          | Collecting c, _ ->
              c.answers <- Site_id.Map.add envelope.src phase c.answers
          | Idle, Quorum _ -> Ctx.log_site t.ctx tmpl_late_answer envelope.src
          | Idle, Cooperative | Repreparing _, _ -> ())
      | _, _, Types.Ack -> (
          match (t.role, t.phase, t.poll) with
          | _, _, Repreparing r ->
              r.pending <- Site_id.Set.remove envelope.src r.pending;
              if Site_id.Set.is_empty r.pending then reprepared t
          | Site.Master_role, Types.Ph_prepared, (Idle | Collecting _) ->
              if collect t envelope then
                decide_and_tell t Types.Commit ~reason:"all acks received"
          | _ -> Ctx.log_ignoring t.ctx envelope.payload (state_name t))
      | _ -> Ctx.log_ignoring t.ctx envelope.payload (state_name t)

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
