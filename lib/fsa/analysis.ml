open Machine

type site_state = role * string

let pp_site_state fmt (role, id) =
  Format.fprintf fmt "%a:%s" pp_role role id

let compare_site_state (r1, s1) (r2, s2) =
  let c = Stdlib.compare r1 r2 in
  if c <> 0 then c else String.compare s1 s2

module SS = Set.Make (struct
  type t = site_state

  let compare = compare_site_state
end)

module SS_map = Map.Make (struct
  type t = site_state

  let compare = compare_site_state
end)

type t = {
  protocol : Machine.t;
  n : int;
  globals : Explore.global list;
  concurrency : SS.t SS_map.t;
  occupied : SS.t;  (* states seen in some reachable global *)
  not_committable : SS.t;  (* occupied with not-all-voted *)
}

let all_states protocol =
  List.map (fun s -> (Master, s.id)) protocol.master.states
  @ List.map (fun s -> (Slave, s.id)) protocol.slave.states

let role_of_site site = if site = 1 then Master else Slave

let analyze ?max_states protocol ~n =
  let globals = Explore.reachable ?max_states protocol ~n in
  let concurrency = ref SS_map.empty in
  let occupied = ref SS.empty in
  let not_committable = ref SS.empty in
  let note_concurrent a b =
    let add key v map =
      SS_map.update key
        (function None -> Some (SS.singleton v) | Some set -> Some (SS.add v set))
        map
    in
    concurrency := add a b (add b a !concurrency)
  in
  List.iter
    (fun (g : Explore.global) ->
      let all_voted = Explore.all_voted g in
      for i = 1 to n do
        let si = (role_of_site i, g.locals.(i - 1)) in
        occupied := SS.add si !occupied;
        if not all_voted then not_committable := SS.add si !not_committable;
        for j = i + 1 to n do
          let sj = (role_of_site j, g.locals.(j - 1)) in
          note_concurrent si sj
        done
      done)
    globals;
  {
    protocol;
    n;
    globals;
    concurrency = !concurrency;
    occupied = !occupied;
    not_committable = !not_committable;
  }

let protocol t = t.protocol

let n_sites t = t.n

let reachable_count t = List.length t.globals

(* C(s), sorted.  States of the same role at other sites count: with
   n >= 3 two slaves can occupy slave states simultaneously. *)
let concurrency_set t s =
  match SS_map.find_opt s t.concurrency with
  | None -> []
  | Some set -> SS.elements set

let kind_of_site_state t (role, id) =
  kind_of (machine_of_role t.protocol role) id

let concurrent_kinds t s =
  concurrency_set t s
  |> List.map (kind_of_site_state t)
  |> List.sort_uniq Stdlib.compare

let sender_set t s =
  let (role, id) = s in
  let machine = machine_of_role t.protocol role in
  let receivable = receivable_tags machine id in
  let senders_of other_machine to_this_role =
    List.filter_map
      (fun (tr : transition) ->
        let sends_to_us =
          List.exists
            (fun a ->
              match (a, to_this_role) with
              | Send_slaves tag, Slave -> List.mem tag receivable
              | Send_master tag, Master -> List.mem tag receivable
              | (Send_slaves _ | Send_master _), _ -> false)
            tr.actions
        in
        if sends_to_us then Some (other_machine.role, tr.source) else None)
      other_machine.transitions
  in
  (* A slave receives from the master; the master receives from slaves.
     With n >= 3, slaves may also receive from other slaves only in the
     termination protocol, which is not an FSA-level construct. *)
  let candidates =
    match role with
    | Slave -> senders_of t.protocol.master Slave
    | Master -> senders_of t.protocol.slave Master
  in
  SS.elements (SS.of_list candidates)

let committable t s =
  not (SS.mem s t.not_committable)

let lemma1_violations t =
  List.filter
    (fun s ->
      let kinds = concurrent_kinds t s in
      List.mem Commit kinds && List.mem Abort kinds)
    (all_states t.protocol)

let lemma2_violations t =
  List.filter
    (fun s ->
      SS.mem s t.occupied
      && (not (committable t s))
      && List.mem Commit (concurrent_kinds t s))
    (all_states t.protocol)

let satisfies_lemmas t =
  lemma1_violations t = [] && lemma2_violations t = []

let terminal_outcomes t =
  List.filter_map
    (fun (g : Explore.global) ->
      if not (Explore.is_terminal t.protocol g) then None
      else
        let kinds =
          Array.to_list g.locals
          |> List.mapi (fun i id ->
                 kind_of (machine_of_role t.protocol (role_of_site (i + 1))) id)
        in
        let commits = List.exists (( = ) Commit) kinds in
        let aborts = List.exists (( = ) Abort) kinds in
        match (commits, aborts) with
        | true, true -> Some `Mixed
        | true, false -> Some `All_commit
        | false, true -> Some `All_abort
        | false, false -> None)
    t.globals
  |> List.sort_uniq Stdlib.compare

let pp_report fmt t =
  Format.fprintf fmt "protocol %s with n=%d: %d reachable global states@."
    t.protocol.name t.n (reachable_count t);
  List.iter
    (fun s ->
      if SS.mem s t.occupied then
        Format.fprintf fmt "  C(%a) = {%a}  [%s]@." pp_site_state s
          (Format.pp_print_list
             ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
             pp_site_state)
          (concurrency_set t s)
          (if committable t s then "committable" else "noncommittable"))
    (all_states t.protocol);
  (match lemma1_violations t with
  | [] -> Format.fprintf fmt "  Lemma 1: satisfied@."
  | vs ->
      Format.fprintf fmt "  Lemma 1 violated at: %a@."
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
           pp_site_state)
        vs);
  match lemma2_violations t with
  | [] -> Format.fprintf fmt "  Lemma 2: satisfied@."
  | vs ->
      Format.fprintf fmt "  Lemma 2 violated at: %a@."
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
           pp_site_state)
        vs
