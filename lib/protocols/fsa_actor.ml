module M = Commit_fsa.Machine

type outcome = [ `To_commit | `To_abort ]

type assignment = {
  timeouts : ((M.role * string) * outcome) list;
  uds : ((M.role * string) * outcome) list;
}

(* The FSA alphabet, indexed by [Types.msg_code]; a tag is its message's
   [Types.msg_tag].  One more edge slot after it holds the master's
   [Start] transition, taken on the user's request. *)
let alphabet =
  Types.
    [|
      Xact; Yes; No; Pre_prepare; Pre_ack; Prepare; Ack; Commit_cmd; Abort_cmd;
    |]

let () = Array.iteri (fun i m -> assert (Types.msg_code m = i)) alphabet

let start_slot = Array.length alphabet

let index_of_tag tag =
  match
    Array.find_index (fun m -> String.equal (Types.msg_tag m) tag) alphabet
  with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Fsa_actor: unknown message tag %S" tag)

let abort_slot = index_of_tag "abort"

(* Non-final, awaiting a message, and entered by some transition: no
   timer runs in an initial state, and nothing sent from it can bounce. *)
let is_waiting (machine : M.machine) id =
  (not (M.is_final machine id))
  && M.receivable_tags machine id <> []
  && List.exists
       (fun (tr : M.transition) -> String.equal tr.M.target id)
       machine.M.transitions

let waiting_states (fsa : M.t) =
  let of_machine (machine : M.machine) =
    List.filter_map
      (fun (s : M.state) ->
        if is_waiting machine s.id then Some (machine.M.role, s.id) else None)
      machine.M.states
  in
  of_machine fsa.M.master @ of_machine fsa.M.slave

(* ---- Theorem 10: the waiting states on either side of m ------------- *)

module A = Commit_fsa.Analysis

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
  let waiting = waiting_states fsa in
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
      let entered_on (tr : M.transition) =
        match tr.M.guard with
        | (M.Recv m | M.Recv_all_votes m) when String.equal tr.M.target p ->
            Some m
        | M.Recv _ | M.Recv_all_votes _ | M.Start -> None
      in
      let m = Option.get (List.find_map entered_on fsa.M.slave.M.transitions) in
      let sends_m (tr : M.transition) = List.mem (M.Send_slaves m) tr.M.actions in
      let p1 = (List.find sends_m fsa.M.master.M.transitions).M.target in
      let after_m = [ (M.Master, p1); (M.Slave, p) ] in
      let before_m = List.filter (fun s -> not (List.mem s after_m)) waiting in
      Ok { m; before_m; after_m }
  | [], [], _ ->
      Error "no single slave waiting state is concurrent with a commit"

let all_assignments fsa =
  let domain = waiting_states fsa in
  let rec enumerate = function
    | [] -> [ [] ]
    | state :: rest ->
        let tails = enumerate rest in
        List.concat_map
          (fun o -> List.map (fun tail -> (state, o) :: tail) tails)
          [ `To_commit; `To_abort ]
  in
  let timeout_choices = enumerate domain in
  let ud_choices = enumerate domain in
  List.concat_map
    (fun timeouts -> List.map (fun uds -> { timeouts; uds }) ud_choices)
    timeout_choices

let validate_assignment (fsa : M.t) assignment =
  let domain = waiting_states fsa in
  List.iter
    (fun (state, _) ->
      if not (List.mem state domain) then
        invalid_arg
          (Format.asprintf "Fsa_actor: assignment for non-waiting state %a"
             Commit_fsa.Analysis.pp_site_state state))
    (assignment.timeouts @ assignment.uds)

(* ------------------------------------------------------------------ *)
(* The compiled machine                                                *)
(* ------------------------------------------------------------------ *)

type send = To_slaves of Types.msg | To_master of Types.msg

let rec send ctx = function
  | [] -> ()
  | To_slaves msg :: rest ->
      Ctx.broadcast_slaves ctx msg;
      send ctx rest
  | To_master msg :: rest ->
      Ctx.send_master ctx msg;
      send ctx rest

type edge = {
  target : int;  (* index into [compiled.states] *)
  sends : send list;
  collect : bool;  (* Recv_all_votes: taken once every slave sent it *)
  reason : string;  (* the decision's reason, when [target] is final *)
}

(* A timeout or returned message's jump to a final state.  [why] is the
   whole reason for a timeout, and the text after "UD(<msg>" for a
   returned message. *)
type jump = { goal : int; command : Types.msg option; why : string }

type state = {
  id : string;
  final : Types.decision option;
  edges : edge option array;  (* by message index, then [start_slot] *)
  timeout : jump option;
  ud : jump option;
  label : Label.t;
}

type compiled = {
  states : state array;
  initial : int;
  commit : int;
  abort : int;
  mult_t : int;
}

(* The reason a decision taken on this guard gives.  A slave reaches a
   final state on [xact] only by voting no. *)
let reason_of (guard : M.guard) =
  match guard with
  | M.Recv "xact" -> "voted no"
  | M.Recv "no" -> "received a no vote"
  | M.Recv_all_votes "yes" -> "all yes votes received"
  | M.Recv_all_votes tag -> Printf.sprintf "all %ss received" tag
  | M.Recv tag -> tag ^ " command"
  | M.Start -> "request"

(* One role machine, for one vote: a state's edges on a tag are the
   transitions reading it, and where a vote choice offers two, the one
   whose [votes_yes] matches. *)
let compile_machine ~protocol assignment (machine : M.machine) ~vote_yes =
  let states = Array.of_list machine.M.states in
  (* [M.validate_exn] has checked that every transition's states exist. *)
  let index id =
    Option.get
      (Array.find_index (fun (s : M.state) -> String.equal s.M.id id) states)
  in
  let final_of kind =
    match Array.find_index (fun (s : M.state) -> s.M.kind = kind) states with
    | Some i -> i
    | None ->
        invalid_arg
          (Printf.sprintf "Fsa_actor: %s has no %s state" protocol
             (if kind = M.Commit then "commit" else "abort"))
  in
  let commit_state = final_of M.Commit and abort_state = final_of M.Abort in
  let slot_of (tr : M.transition) =
    match tr.M.guard with
    | M.Start -> start_slot
    | M.Recv tag | M.Recv_all_votes tag -> index_of_tag tag
  in
  let edge_of (tr : M.transition) =
    {
      target = index tr.M.target;
      sends =
        List.map
          (function
            | M.Send_slaves tag -> To_slaves alphabet.(index_of_tag tag)
            | M.Send_master tag -> To_master alphabet.(index_of_tag tag))
          tr.M.actions;
      collect =
        (match tr.M.guard with M.Recv_all_votes _ -> true | _ -> false);
      reason = reason_of tr.M.guard;
    }
  in
  let state_of (s : M.state) =
    let out =
      List.filter
        (fun (tr : M.transition) -> String.equal tr.M.source s.M.id)
        machine.M.transitions
    in
    let edges =
      Array.init (start_slot + 1) (fun slot ->
          match List.filter (fun tr -> slot_of tr = slot) out with
          | [] -> None
          | [ tr ] -> Some (edge_of tr)
          | choice ->
              Option.map edge_of
                (List.find_opt
                   (fun (tr : M.transition) -> tr.M.votes_yes = vote_yes)
                   choice))
    in
    let final =
      match s.M.kind with
      | M.Commit -> Some Types.Commit
      | M.Abort -> Some Types.Abort
      | M.Initial | M.Intermediate -> None
    in
    (* The network is not FIFO, so an abort command can overtake xact:
       it moves any non-final slave state to abort. *)
    if machine.M.role = M.Slave && final = None && edges.(abort_slot) = None
    then
      edges.(abort_slot) <-
        Some
          {
            target = abort_state;
            sends = [];
            collect = false;
            reason = "abort command";
          };
    (* A master never re-sends the command it entered this state by
       sending. *)
    let entered_by msg =
      List.exists
        (fun (tr : M.transition) ->
          String.equal tr.M.target s.M.id
          && List.mem (M.Send_slaves (Types.msg_tag msg)) tr.M.actions)
        machine.M.transitions
    in
    let jump table ~why =
      Option.map
        (fun outcome ->
          let goal, command, word =
            match outcome with
            | `To_commit -> (commit_state, Types.Commit_cmd, "commit")
            | `To_abort -> (abort_state, Types.Abort_cmd, "abort")
          in
          {
            goal;
            command =
              (if machine.M.role = M.Master && not (entered_by command) then
                 Some command
               else None);
            why = why ^ word;
          })
        (List.assoc_opt (machine.M.role, s.M.id) table)
    in
    {
      id = s.M.id;
      final;
      edges;
      timeout = jump assignment.timeouts ~why:(s.M.id ^ " timeout -> ");
      ud = jump assignment.uds ~why:(") in " ^ s.M.id ^ " -> ");
      label = Label.Static (s.M.id ^ "-timeout");
    }
  in
  {
    states = Array.map state_of states;
    initial = index machine.M.initial;
    commit = commit_state;
    abort = abort_state;
    mult_t = (match machine.M.role with M.Master -> 2 | M.Slave -> 3);
  }

let none = { timeouts = []; uds = [] }

let compile fsa role ~vote_yes =
  let fsa = M.validate_exn fsa in
  compile_machine ~protocol:fsa.M.name none (M.machine_of_role fsa role)
    ~vote_yes

let edge state msg =
  let code = Types.msg_code msg in
  if code < start_slot then state.edges.(code) else None

let start_edge state = state.edges.(start_slot)

type side = Plain | Before_m | After_m

let side classes role state =
  if List.mem (role, state.id) classes.after_m then After_m
  else if List.mem (role, state.id) classes.before_m then Before_m
  else Plain

(* ------------------------------------------------------------------ *)
(* The interpreter                                                     *)
(* ------------------------------------------------------------------ *)

let make ~name:protocol_name fsa assignment =
  let fsa = M.validate_exn fsa in
  validate_assignment fsa assignment;
  let compile = compile_machine ~protocol:protocol_name assignment in
  let master = compile fsa.M.master ~vote_yes:true in
  let yes_slave = compile fsa.M.slave ~vote_yes:true in
  let no_slave = compile fsa.M.slave ~vote_yes:false in
  let module Actor = struct
    let name = protocol_name

    let blocking_by_design = assignment.timeouts = [] && assignment.uds = []

    type t = {
      ctx : Ctx.t;
      machine : compiled;
      timer : Ctx.Timer_slot.slot;
      mutable state : state;
      mutable votes : Site_id.Set.t;  (* senders toward a [collect] edge *)
    }

    let create ctx role =
      let machine =
        match role with
        | Site.Master_role -> master
        | Site.Slave_role { vote_yes } ->
            if vote_yes then yes_slave else no_slave
      in
      let state = machine.states.(machine.initial) in
      Ctx.obs_state ctx state.id;
      {
        ctx;
        machine;
        timer = Ctx.Timer_slot.create ();
        state;
        votes = Site_id.Set.empty;
      }

    let state_name t = t.state.id

    (* Every state change goes through [enter], which cancels the timer;
       so a timer that fires is always the current state's. *)
    let enter t index =
      Ctx.Timer_slot.cancel t.timer;
      t.state <- t.machine.states.(index);
      t.votes <- Site_id.Set.empty;
      Ctx.obs_state t.ctx t.state.id

    let decide t reason =
      match t.state.final with
      | Some decision -> Ctx.decide t.ctx decision ~reason
      | None -> ()

    let jump t (j : jump) ~reason =
      enter t j.goal;
      Option.iter (Ctx.broadcast_slaves t.ctx) j.command;
      decide t reason

    let take t (e : edge) =
      enter t e.target;
      send t.ctx e.sends;
      (match t.state.timeout with
      | Some j ->
          Ctx.Timer_slot.set t.ctx t.timer ~mult_t:t.machine.mult_t
            ~label:t.state.label (fun () -> jump t j ~reason:j.why)
      | None -> ());
      decide t e.reason

    let begin_transaction t =
      match start_edge t.state with Some e -> take t e | None -> ()

    let on_delivery t = function
      | Network.Msg envelope -> (
          match edge t.state envelope.payload with
          | Some e when e.collect ->
              t.votes <- Site_id.Set.add envelope.src t.votes;
              if Site_id.Set.cardinal t.votes = Ctx.n t.ctx - 1 then take t e
          | Some e -> take t e
          | None -> Ctx.log_ignoring t.ctx envelope.payload t.state.id)
      | Network.Undeliverable envelope -> (
          match t.state.ud with
          | Some j ->
              jump t j ~reason:("UD(" ^ Types.msg_tag envelope.payload ^ j.why)
          | None -> Ctx.log_ud_ignored t.ctx envelope.payload t.state.id)
  end in
  (module Actor : Site.S)

(* Rules (a)/(b) over [fsa]'s failure-free concurrency sets at [n]
   sites, restricted to {!waiting_states}: timeouts from Rule (a); UDs
   from Rule (b) where it decides, else from Rule (a). *)
let rules ~name fsa ~n =
  let open Commit_fsa.Augment in
  let outcome = function To_commit -> `To_commit | To_abort -> `To_abort in
  let domain = waiting_states fsa in
  let rules =
    List.filter (fun a -> List.mem a.state domain)
      (apply_rules (Commit_fsa.Analysis.analyze fsa ~n)).assignments
  in
  let each f = List.map (fun a -> (a.state, outcome (f a))) rules in
  make ~name fsa
    {
      timeouts = each (fun a -> a.timeout);
      uds =
        each (fun a -> Option.value a.on_undeliverable ~default:a.timeout);
    }

(* ------------------------------------------------------------------ *)
(* The five protocols                                                  *)
(* ------------------------------------------------------------------ *)

let two_phase = make ~name:"2pc" Commit_fsa.Catalog.two_phase none

let ext_two_phase =
  rules ~name:"ext2pc" Commit_fsa.Catalog.extended_two_phase ~n:2

let three_phase = make ~name:"3pc" Commit_fsa.Catalog.three_phase none

let three_phase_rules =
  let commit_leaning =
    [
      ((M.Master, "w1"), `To_abort);
      ((M.Master, "p1"), `To_commit);
      ((M.Slave, "w"), `To_abort);
      ((M.Slave, "p"), `To_commit);
    ]
  in
  make ~name:"3pc+rules" Commit_fsa.Catalog.three_phase
    { timeouts = commit_leaning; uds = commit_leaning }

let three_phase_rules_strict =
  rules ~name:"3pc+rules-strict" Commit_fsa.Catalog.three_phase ~n:3
