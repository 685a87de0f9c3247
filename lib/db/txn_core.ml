type txn_spec = {
  tid : int;
  start_at : Vtime.t;
  writes : (Site_id.t * Wal.update list) list;
  reads : (Site_id.t * string list) list;
  vote_no : Site_id.t list;
}

let writes_at spec site =
  match List.assoc_opt site spec.writes with Some updates -> updates | None -> []

(* Wire payload: protocol messages multiplexed by transaction. *)
type wire = { wtid : int; body : Types.msg }

let pp_wire fmt w = Format.fprintf fmt "t%d:%a" w.wtid Types.pp_msg w.body

(* Binary wire codec: the transaction id rides in bits 40+ above the
   packed message (see Types.msg_code's layout). *)
let wire_code w = Types.msg_code w.body lor (w.wtid lsl 40)

let wire_renderer =
  Network.register_payload_renderer (fun b code ->
      Buffer.add_char b 't';
      Buffer.add_string b (string_of_int (code lsr 40));
      Buffer.add_char b ':';
      Types.buf_msg_code b (code land ((1 lsl 40) - 1)))

let wire_codec = (wire_renderer, wire_code)

type outcome = Committed | Aborted | Open | Torn

(* Core trace templates, registered at module init (the [Make] functor
   is applied once per run).  Sites are physical: "site%d". *)

let buf_site b site =
  Buffer.add_string b "site";
  Buffer.add_string b (string_of_int site)

let tmpl_never_reached =
  Trace.register_template (fun b _ tid site _ _ _ ->
      Buffer.add_char b 't';
      Buffer.add_string b (string_of_int tid);
      Buffer.add_string b ": ";
      buf_site b site;
      Buffer.add_string b " never reached; local abort")

let tmpl_crashed =
  Trace.register_template (fun b _ site _ _ _ _ ->
      buf_site b site;
      Buffer.add_string b " CRASHED")

let tmpl_recovered =
  Trace.register_template (fun b _ site redone in_doubt aborted _ ->
      buf_site b site;
      Buffer.add_string b " RECOVERED redo=";
      Buffer.add_string b (string_of_int redone);
      Buffer.add_string b " in-doubt=";
      Buffer.add_string b (string_of_int in_doubt);
      Buffer.add_string b " aborted=";
      Buffer.add_string b (string_of_int aborted))

let tmpl_adopted =
  Trace.register_template (fun b _ tid site commit _ _ ->
      Buffer.add_char b 't';
      Buffer.add_string b (string_of_int tid);
      Buffer.add_string b ": ";
      buf_site b site;
      Buffer.add_string b " in doubt; adopts ";
      Buffer.add_string b (if commit = 1 then "commit" else "abort"))

(* ------------------------------------------------------------------ *)
(* The recovery rule over stable storage                               *)
(* ------------------------------------------------------------------ *)

let peer_decision stores ~site ~tid =
  let self = Site_id.to_int site - 1 in
  let rec scan j =
    if j >= Array.length stores then None
    else if j = self then scan (j + 1)
    else
      match Durable_site.status stores.(j) ~tid with
      | `Committed | `Ended -> Some Types.Commit
      | `Aborted -> Some Types.Abort
      | `Unknown | `Active | `Prepared -> scan (j + 1)
  in
  scan 0

(* Ready a recovered site's log for [decision]; false when nothing
   needs writing.  [`Prepared]: the replay re-staged the forced Stage
   record, so the plain decision finishes the job.  [`Active]: the
   site crashed between its vote and the forced prepare, yet the group
   may have committed over the survivors, so a commit re-stages the
   writes (an abort just logs).  [`Unknown]: the transaction reached
   the group while the site was down; a commit still binds it (begin,
   stage, commit) and an abort needs no record.  Anything else is
   already decided in the log. *)
let restage d ~tid ~writes decision =
  match (Durable_site.status d ~tid, decision) with
  | `Prepared, _ | `Active, Types.Abort -> true
  | ((`Active | `Unknown) as status), Types.Commit ->
      if status = `Unknown then Durable_site.begin_transaction d ~tid;
      Durable_site.stage d ~tid writes;
      true
  | `Unknown, Types.Abort | (`Committed | `Aborted | `Ended), _ -> false

let write_decision d ~tid = function
  | Types.Commit -> Durable_site.commit d ~tid ()
  | Types.Abort -> Durable_site.abort d ~tid

let adopt d ~tid ~writes decision =
  if restage d ~tid ~writes decision then write_decision d ~tid decision

let money ~prefix stores =
  Array.fold_left
    (fun acc d ->
      List.fold_left
        (fun acc (key, value) ->
          if String.starts_with ~prefix key then acc + int_of_string value
          else acc)
        acc
        (Kv.snapshot (Durable_site.database d)))
    0 stores

let load kvs =
  let d = Durable_site.create () in
  List.iter (fun (key, value) -> Kv.set (Durable_site.database d) ~key ~value) kvs;
  d

(* Per-transaction master relabelling: the protocols hard-wire "site 1
   masters", so a transaction coordinated by physical site m sees
   logical ids rotated to put m at 1.  The bijection keeps self-sends
   impossible and the wire purely physical. *)
let logical_of ~n ~master phys =
  Site_id.of_int (((Site_id.to_int phys - Site_id.to_int master + n) mod n) + 1)

let physical_of ~n ~master logical =
  Site_id.of_int
    (((Site_id.to_int logical - 1 + (Site_id.to_int master - 1)) mod n) + 1)

let relabel ~n ~master (e : wire Network.envelope) =
  {
    Network.src = logical_of ~n ~master e.src;
    dst = logical_of ~n ~master e.dst;
    payload = e.payload.body;
    sent_at = e.sent_at;
  }

module Make (P : Site.S) = struct
  type 'c txn = {
    spec : txn_spec;
    mutable client : 'c;
    mutable master : Site_id.t;
    mutable started_at : Vtime.t;
    mutable instances : P.t array;
    decisions : Types.decision option array;
    fenced : bool array;
    awaiting : bool array;
    mutable settled : bool;
  }

  type 'c hooks = {
    decided : 'c txn -> Site_id.t -> Types.decision -> unit;
    settled : 'c txn -> unit;
    reason : 'c txn -> string -> unit;
    crashed : Site_id.t -> unit;
    restarted : Site_id.t -> unit;
    recovered : Site_id.t -> Durable_site.recovery_report -> unit;
  }

  type 'c t = {
    engine : Engine.t;
    n : int;
    t_unit : Vtime.t;
    log : Trace.t;  (* cached Engine.trace *)
    on : bool;  (* cached Trace.on *)
    topic : Trace.topic;
    prof : Prof.t option;
    net : wire Network.t;
    stores : Durable_site.t array;
    txns : (int, 'c txn) Hashtbl.t;
    dead : bool array;  (* crash-stopped sites, index = physical - 1 *)
    mutable hooks : 'c hooks;
  }

  let no_hooks =
    {
      decided = (fun _ _ _ -> ());
      settled = ignore;
      reason = (fun _ _ -> ());
      crashed = ignore;
      restarted = ignore;
      recovered = (fun _ _ -> ());
    }

  let set_hooks t hooks = t.hooks <- hooks

  (* Profiler brackets; no-ops (no closure, no allocation) when
     profiling is off. *)
  let prof_enter t b = match t.prof with Some p -> Prof.enter p b | None -> ()

  let prof_leave t = match t.prof with Some p -> Prof.leave p | None -> ()

  let now t = Engine.now t.engine

  (* Call sites guard with [t.on]. *)
  let log1 t tmpl a0 = Trace.log1 t.log ~at:(now t) ~topic:t.topic tmpl a0

  let log2 t tmpl a0 a1 = Trace.log2 t.log ~at:(now t) ~topic:t.topic tmpl a0 a1

  let log3 t tmpl a0 a1 a2 =
    Trace.log3 t.log ~at:(now t) ~topic:t.topic tmpl a0 a1 a2

  let log4 t tmpl a0 a1 a2 a3 =
    Trace.log4 t.log ~at:(now t) ~topic:t.topic tmpl a0 a1 a2 a3

  let on t = t.on

  let log t = t.log

  let topic t = t.topic

  let net t = t.net

  let stores t = t.stores

  let alive t site = not t.dead.(Site_id.to_int site - 1)

  let find t tid = Hashtbl.find_opt t.txns tid

  let fold t f acc = Hashtbl.fold (fun _ txn acc -> f txn acc) t.txns acc

  let started txn = Array.length txn.instances > 0

  let by_tid a b = Int.compare a.spec.tid b.spec.tid

  (* The transaction's lifecycle spans on track 0 (the client's own
     timeline) end when it settles. *)
  let seal t tid =
    let at = now t in
    while Obs.open_depth t.log ~site:0 ~tid > 0 do
      Obs.span_end t.log ~at ~site:0 ~tid
    done

  (* Settlement is judged over live sites only: a crash-stopped site
     never decides and is nobody's fault. *)
  let live_complete t txn =
    let complete = ref true in
    for i = 0 to t.n - 1 do
      if (not t.dead.(i)) && Option.is_none txn.decisions.(i) then
        complete := false
    done;
    !complete

  let outcome t txn =
    let commits = ref 0 and aborts = ref 0 and undecided = ref 0 in
    for i = 0 to t.n - 1 do
      if not t.dead.(i) then
        match txn.decisions.(i) with
        | Some Types.Commit -> incr commits
        | Some Types.Abort -> incr aborts
        | None -> incr undecided
    done;
    if !undecided > 0 then Open
    else if !commits > 0 && !aborts = 0 then Committed
    else if !aborts > 0 && !commits = 0 then Aborted
    else Torn

  let settle t (txn : _ txn) =
    txn.settled <- true;
    if t.on then seal t txn.spec.tid;
    t.hooks.settled txn

  (* The one decision path.  Recovered sites waiting for the group
     adopt the first decision made after their restart; all-or-nothing
     agreement makes "first" equal "the" group decision.  The client
     hears of the decision last, so work it triggers (Tm's lock release
     starting the next transaction) follows this transaction's
     settlement and the sealing of its spans. *)
  let rec apply t txn i decision ~durable =
    txn.decisions.(i) <- Some decision;
    if durable then write_decision t.stores.(i) ~tid:txn.spec.tid decision;
    for j = 0 to t.n - 1 do
      if txn.awaiting.(j) && Option.is_none txn.decisions.(j) && not t.dead.(j)
      then begin
        txn.awaiting.(j) <- false;
        adopt_in_run t txn j decision
      end
    done;
    if (not txn.settled) && live_complete t txn then settle t txn;
    t.hooks.decided txn (Site_id.of_int (i + 1)) decision

  and adopt_in_run t txn i decision =
    let tid = txn.spec.tid in
    let durable =
      restage t.stores.(i) ~tid
        ~writes:(writes_at txn.spec (Site_id.of_int (i + 1)))
        decision
    in
    if t.on then
      log3 t tmpl_adopted tid (i + 1)
        (match decision with Types.Commit -> 1 | Types.Abort -> 0);
    apply t txn i decision ~durable

  (* A crash-stopped site's timers still fire in its isolated ghost
     state, and after a recovery the pre-crash instance is a fenced
     ghost whose volatile state was lost: nothing either decides may
     reach the durable store or the client. *)
  let record t txn i decision =
    if (not t.dead.(i)) && (not txn.fenced.(i)) && Option.is_none txn.decisions.(i)
    then apply t txn i decision ~durable:true

  let add t spec client =
    let n = t.n in
    let txn =
      {
        spec;
        client;
        master = Site_id.master;
        started_at = Vtime.zero;
        instances = [||];
        decisions = Array.make n None;
        fenced = Array.make n false;
        awaiting = Array.make n false;
        settled = false;
      }
    in
    Hashtbl.add t.txns spec.tid txn;
    txn

  let start t txn ~master =
    let n = t.n and spec = txn.spec in
    let tid = spec.tid in
    txn.master <- master;
    txn.started_at <- now t;
    (* A site that is down now never sees the transaction: no durable
       begin, and its instance is born fenced. *)
    Array.blit t.dead 0 txn.fenced 0 n;
    let instances =
      Array.init n (fun i ->
          let phys = Site_id.of_int (i + 1) in
          if not t.dead.(i) then begin
            let d = t.stores.(i) in
            Durable_site.begin_transaction d ~tid;
            Durable_site.stage d ~tid (writes_at spec phys)
          end;
          let self = logical_of ~n ~master phys in
          let ctx =
            Ctx.make ~engine:t.engine ~n ~t_unit:t.t_unit ~self ~trans_id:tid
              ~send:(fun dst body ->
                if not txn.fenced.(i) then
                  Network.send t.net ~src:phys
                    ~dst:(physical_of ~n ~master dst)
                    { wtid = tid; body })
              ~on_decide:(fun decision -> record t txn i decision)
              ~on_reason:(fun r -> t.hooks.reason txn r)
              ~obs_site:(i + 1) ()
          in
          let role =
            if Site_id.is_master self then Site.Master_role
            else if List.mem phys spec.vote_no then
              Site.Slave_role { vote_yes = false }
            else Site.Slave_role { vote_yes = true }
          in
          P.create ctx role)
    in
    txn.instances <- instances;
    (* A site cut off before the transaction reaches it sits in its
       initial state forever; abort it locally after 12T, far beyond
       any legitimate quiet period (the xact otherwise arrives within T
       of the start). *)
    Array.iteri
      (fun i instance ->
        ignore
          (Engine.schedule t.engine ~rank:Engine.Timer
             ~delay:(Vtime.of_int (12 * Vtime.to_int t.t_unit))
             ~label:(Label.Static "q-watchdog")
             (fun () ->
               let initial =
                 match P.state_name instance with
                 | "q" | "q1" -> true
                 | _ -> false
               in
               if Option.is_none txn.decisions.(i) && initial then begin
                 if t.on then log2 t tmpl_never_reached tid (i + 1);
                 record t txn i Types.Abort
               end)))
      instances;
    P.begin_transaction instances.(Site_id.to_int master - 1)

  let deliver t phys delivery =
    let wtid =
      match delivery with Network.Msg e | Network.Undeliverable e -> e.payload.wtid
    in
    match Hashtbl.find_opt t.txns wtid with
    | None -> ()
    | Some txn ->
        let i = Site_id.to_int phys - 1 in
        (* A fenced instance lost its volatile state in a crash;
           deliveries that outlived the outage must not wake it. *)
        if started txn && not txn.fenced.(i) then begin
          let n = t.n and master = txn.master in
          let unwrapped =
            match delivery with
            | Network.Msg e -> Network.Msg (relabel ~n ~master e)
            | Network.Undeliverable e -> Network.Undeliverable (relabel ~n ~master e)
          in
          let instance = txn.instances.(i) in
          prof_enter t Prof.Protocol;
          P.on_delivery instance unwrapped;
          (* Reaching the prepared state must survive a restart (the
             paper's p / p1 states); persist it on the transition. *)
          (match P.state_name instance with
          | "p" | "p1" ->
              let d = t.stores.(i) in
              if Durable_site.status d ~tid:wtid = `Active then
                Durable_site.prepare d ~tid:wtid
          | _ -> ());
          prof_leave t
        end

  let create ~engine ?prof ~topic ~n ~t_unit ~mode ~partition ~delay ~seed
      ~initial () =
    let log = Engine.trace engine in
    let net =
      Network.create ~engine ~n ~t_max:t_unit ~mode ~partition ~delay ~seed
        ~pp_payload:pp_wire ~payload_codec:wire_codec
        ~obs_tid:(fun w -> w.wtid)
        ?prof ()
    in
    let t =
      {
        engine;
        n;
        t_unit;
        log;
        on = Trace.on log;
        topic = Trace.topic log topic;
        prof;
        net;
        stores =
          Array.init n (fun i ->
              match List.assoc_opt (Site_id.of_int (i + 1)) initial with
              | Some kvs -> load kvs
              | None -> Durable_site.create ());
        txns = Hashtbl.create 256;
        dead = Array.make n false;
        hooks = no_hooks;
      }
    in
    Network.set_handler net (deliver t);
    t

  (* Crash-stop: the site falls silent and loses its volatile state (the
     WAL, with the Stage records of prepared transactions, is what a
     recovery replays); transactions now complete over the survivors
     settle, in tid order. *)
  let crash t site =
    let i = Site_id.to_int site - 1 in
    if not t.dead.(i) then begin
      t.dead.(i) <- true;
      Network.crash t.net site;
      Durable_site.crash t.stores.(i);
      if t.on then log1 t tmpl_crashed (i + 1);
      t.hooks.crashed site;
      fold t
        (fun txn acc ->
          if started txn && (not txn.settled) && live_complete t txn then
            txn :: acc
          else acc)
        []
      |> List.sort by_tid
      |> List.iter (fun (txn : _ txn) -> if not txn.settled then settle t txn)
    end

  (* Crash-recover: at the UP instant every instance the site had is a
     ghost and stays fenced.  The group outranks the local WAL: the
     termination protocol can commit a transaction whose crashed
     participant had voted yes but not yet forced its prepare record, so
     every active transaction the group has not decided stays open
     across the replay.  Each transaction the replay leaves open then
     follows the recovery rule: adopt the first decision in a peer's
     stable log, or wait for the group's first decision. *)
  let recover t site =
    let i = Site_id.to_int site - 1 in
    if t.dead.(i) then begin
      Hashtbl.iter (fun _ txn -> txn.fenced.(i) <- true) t.txns;
      t.dead.(i) <- false;
      Network.recover t.net site;
      t.hooks.restarted site;
      let d = t.stores.(i) in
      let open_txns =
        fold t
          (fun txn acc ->
            if started txn && Option.is_none txn.decisions.(i) then txn :: acc
            else acc)
          []
        |> List.sort by_tid
      in
      let undecided =
        List.filter_map
          (fun txn ->
            let tid = txn.spec.tid in
            if Durable_site.status d ~tid = `Active then Some tid else None)
          open_txns
      in
      let rep = Durable_site.recover ~undecided d in
      if t.on then
        log4 t tmpl_recovered (i + 1) (List.length rep.redone)
          (List.length rep.in_doubt) (List.length rep.aborted);
      (* What the replay still aborted on its own (an active transaction
         no peer is deciding) is already logged. *)
      List.iter
        (fun tid ->
          match find t tid with
          | Some txn when Option.is_none txn.decisions.(i) ->
              apply t txn i Types.Abort ~durable:false
          | Some _ | None -> ())
        rep.aborted;
      List.iter
        (fun txn ->
          if Option.is_none txn.decisions.(i) then
            match peer_decision t.stores ~site ~tid:txn.spec.tid with
            | Some decision -> adopt_in_run t txn i decision
            | None -> txn.awaiting.(i) <- true)
        open_txns;
      t.hooks.recovered site rep
    end

  let schedule_faults t ~crashes ~recoveries =
    let check what (site, _) =
      let s = Site_id.to_int site in
      if s < 1 || s > t.n then
        invalid_arg
          (Printf.sprintf "Txn_core.schedule_faults: %s site %d out of range (n=%d)"
             what s t.n)
    in
    List.iter (check "crash") crashes;
    List.iter
      (fun ((site, at) as r) ->
        check "recovery" r;
        if
          not
            (List.exists
               (fun (s, c) -> Site_id.equal s site && Vtime.( < ) c at)
               crashes)
        then
          invalid_arg
            (Printf.sprintf
               "Txn_core.schedule_faults: recovery for site %d has no earlier crash"
               (Site_id.to_int site)))
      recoveries;
    List.iter
      (fun (site, at) ->
        ignore
          (Engine.schedule_at t.engine ~at ~label:(Label.Static "crash") (fun () ->
               crash t site)))
      crashes;
    List.iter
      (fun (site, at) ->
        ignore
          (Engine.schedule_at t.engine ~at ~label:(Label.Static "recover")
             (fun () -> recover t site)))
      recoveries
end
