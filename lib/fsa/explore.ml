open Machine

type global = {
  locals : string array;
  inflight : (int * int * string) list;
  voted : bool array;
  started : bool;
}

let compare_msg (a1, a2, a3) (b1, b2, b3) =
  let c = Int.compare a1 b1 in
  if c <> 0 then c
  else
    let c = Int.compare a2 b2 in
    if c <> 0 then c else String.compare a3 b3

let compare_global a b =
  let c = Stdlib.compare a.locals b.locals in
  if c <> 0 then c
  else
    let c = Stdlib.compare a.voted b.voted in
    if c <> 0 then c
    else
      let c = Bool.compare a.started b.started in
      if c <> 0 then c else Stdlib.compare a.inflight b.inflight

module Global_set = Set.Make (struct
  type t = global

  let compare = compare_global
end)

let initial protocol ~n =
  if n < 2 then invalid_arg "Explore.initial: need at least two sites";
  {
    locals =
      Array.init n (fun i ->
          if i = 0 then protocol.master.initial else protocol.slave.initial);
    inflight = [];
    voted = Array.make n false;
    started = false;
  }

let machine_for protocol site = if site = 1 then protocol.master else protocol.slave

(* Remove exactly one occurrence of [msg] from a sorted multiset. *)
let remove_one msg inflight =
  let rec go = function
    | [] -> []
    | m :: rest -> if compare_msg m msg = 0 then rest else m :: go rest
  in
  go inflight

let add_messages ~n ~site actions inflight =
  let sends =
    List.concat_map
      (function
        | Send_slaves tag -> List.map (fun s -> (site, s, tag)) (List.init (n - 1) (fun i -> i + 2))
        | Send_master tag -> [ (site, 1, tag) ])
      actions
  in
  List.sort compare_msg (sends @ inflight)

let apply ~n global ~site ~(transition : transition) ~consumed =
  let locals = Array.copy global.locals in
  locals.(site - 1) <- transition.target;
  let voted = Array.copy global.voted in
  if transition.votes_yes then voted.(site - 1) <- true;
  let inflight = List.fold_left (fun acc m -> remove_one m acc) global.inflight consumed in
  let inflight = add_messages ~n ~site transition.actions inflight in
  { locals; inflight; voted; started = global.started || transition.guard = Start }

let pending_for global ~site ~tag =
  List.filter (fun (_, dst, t) -> dst = site && String.equal t tag) global.inflight

(* All one-transition successors: each possible local transition on
   each possible enabling message choice. *)
let successors protocol ~n global =
  let next = ref [] in
  let emit g = next := g :: !next in
  for site = 1 to n do
    let machine = machine_for protocol site in
    let here = global.locals.(site - 1) in
    List.iter
      (fun transition ->
        if String.equal transition.source here then
          match transition.guard with
          | Start ->
              if (not global.started) && site = 1 then
                emit (apply ~n global ~site ~transition ~consumed:[])
          | Recv tag ->
              (* One successor per distinct pending instance of the tag
                 addressed to this site (distinct senders give distinct
                 interleavings). *)
              let pending = pending_for global ~site ~tag in
              let seen = ref [] in
              List.iter
                (fun msg ->
                  if not (List.exists (fun m -> compare_msg m msg = 0) !seen)
                  then begin
                    seen := msg :: !seen;
                    emit (apply ~n global ~site ~transition ~consumed:[ msg ])
                  end)
                pending
          | Recv_all_votes tag ->
              if site = 1 then begin
                let votes =
                  List.filter_map
                    (fun slave ->
                      match pending_for global ~site:1 ~tag with
                      | msgs -> List.find_opt (fun (src, _, _) -> src = slave) msgs)
                    (List.init (n - 1) (fun i -> i + 2))
                in
                if List.length votes = n - 1 then
                  emit (apply ~n global ~site ~transition ~consumed:votes)
              end)
      machine.transitions
  done;
  !next

let reachable ?(max_states = 200_000) protocol ~n =
  let start = initial protocol ~n in
  let seen = ref (Global_set.singleton start) in
  let queue = Queue.create () in
  Queue.add start queue;
  while not (Queue.is_empty queue) do
    let g = Queue.pop queue in
    List.iter
      (fun g' ->
        if not (Global_set.mem g' !seen) then begin
          seen := Global_set.add g' !seen;
          if Global_set.cardinal !seen > max_states then
            failwith "Explore.reachable: state-space bound exceeded";
          Queue.add g' queue
        end)
      (successors protocol ~n g)
  done;
  Global_set.elements !seen

let is_terminal protocol global =
  let n = Array.length global.locals in
  let ok = ref true in
  for site = 1 to n do
    let machine = machine_for protocol site in
    if not (is_final machine global.locals.(site - 1)) then ok := false
  done;
  !ok

let all_voted global = Array.for_all Fun.id global.voted
