type fact = {
  instance : Site_id.t;
  ballot : int;
  wire_accepts : int;
  leader_local : bool;
  majority : int;
}

type problem = {
  instance : Site_id.t;
  majority : int;
  best : int;
  detail : string;
}

let pp_problem fmt (p : problem) =
  Format.fprintf fmt "i%a: %s (best %d < majority %d)" Site_id.pp p.instance
    p.detail p.best p.majority

let collecting_tap () =
  let events = ref [] in
  ((fun e -> events := e :: !events), fun () -> List.rev !events)

let acceptor_count ~f ~n = min n ((2 * f) + 1)

let audit ~f (result : Runner.result) events =
  let n = result.config.Runner.n in
  let k = acceptor_count ~f ~n in
  let majority = (k / 2) + 1 in
  let committed =
    Array.exists
      (fun (s : Runner.site_result) -> s.decision = Some Types.Commit)
      result.sites
  in
  if not committed then Ok []
  else begin
    (* (instance, ballot) -> distinct acceptors whose Prepared 2b was
       actually delivered; sends that were lost or bounced never
       reached a leader and must not count as evidence. *)
    let tbl = Hashtbl.create 16 in
    List.iter
      (function
        | Network.Delivered
            {
              env =
                {
                  Network.src;
                  payload =
                    Types.Px_accept { instance; ballot; prepared = true };
                  _;
                };
              _;
            } ->
            let key = (Site_id.to_int instance, ballot) in
            let cur =
              Option.value (Hashtbl.find_opt tbl key)
                ~default:Site_id.Set.empty
            in
            Hashtbl.replace tbl key (Site_id.Set.add src cur)
        | _ -> ())
      events;
    let facts = ref [] and problems = ref [] in
    List.iter
      (fun inst ->
        let i = Site_id.to_int inst in
        let best =
          Hashtbl.fold
            (fun (i', ballot) srcs acc ->
              if i' <> i then acc
              else begin
                let owner = Acceptor.owner ~n ballot in
                let local =
                  Site_id.to_int owner <= k
                  && not (Site_id.Set.mem owner srcs)
                in
                let support =
                  Site_id.Set.cardinal srcs + if local then 1 else 0
                in
                match acc with
                | Some (_, s, _) when s >= support -> acc
                | Some _ | None -> Some (ballot, support, local)
              end)
            tbl None
        in
        match best with
        | Some (ballot, support, local) when support >= majority ->
            facts :=
              {
                instance = inst;
                ballot;
                wire_accepts = (support - if local then 1 else 0);
                leader_local = local;
                majority;
              }
              :: !facts
        | Some (ballot, support, _) ->
            problems :=
              {
                instance = inst;
                majority;
                best = support;
                detail =
                  Printf.sprintf
                    "committed, but the best ballot (%d) lacks an acceptor \
                     majority"
                    ballot;
              }
              :: !problems
        | None ->
            problems :=
              {
                instance = inst;
                majority;
                best = 0;
                detail = "committed with no Prepared 2b on the wire";
              }
              :: !problems)
      (Site_id.all ~n);
    if !problems = [] then Ok (List.rev !facts)
    else Error (List.rev !problems)
  end
