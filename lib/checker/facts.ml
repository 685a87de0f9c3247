type problem = {
  site : Site_id.t;
  decision : Types.decision;
  reason : string;
  detail : string;
}

let pp_problem fmt p =
  Format.fprintf fmt "%a decided %a with reason %S: %s" Site_id.pp p.site
    Types.pp_decision p.decision p.reason p.detail

let admissible_commit_reasons_slave ~variant =
  Termination.fact1_reasons
  @
  match variant with
  | Termination.Static -> []
  | Termination.Transient -> [ "transient-5t-commit" ]

let admissible_commit_reasons_master = Termination.fact2_reasons

(* Four-phase commit is judged as the static variant: from m on it is
   the same protocol. *)
let variant_of_result (result : Runner.result) =
  match result.protocol_name with
  | "termination" | "4pc-termination" -> Termination.Static
  | "termination-transient" -> Termination.Transient
  | other ->
      invalid_arg
        (Printf.sprintf
           "Facts.audit: %s is not a termination-protocol result" other)

let audit (result : Runner.result) =
  let variant = variant_of_result result in
  let problems = ref [] in
  Array.iter
    (fun (s : Runner.site_result) ->
      if not s.crashed then
        match s.decision with
        | None -> ()
        | Some decision ->
            let admissible =
              match (Site_id.is_master s.site, decision) with
              | true, Types.Commit -> admissible_commit_reasons_master
              | true, Types.Abort -> Termination.master_abort_reasons
              | false, Types.Commit -> admissible_commit_reasons_slave ~variant
              | false, Types.Abort -> Termination.slave_abort_reasons
            in
            let tags = List.filter (fun r -> List.mem r admissible) s.reasons in
            let unknown =
              List.filter
                (fun r ->
                  not
                    (List.mem r
                       (admissible_commit_reasons_master
                       @ Termination.master_abort_reasons
                       @ admissible_commit_reasons_slave ~variant
                       @ Termination.slave_abort_reasons)))
                s.reasons
            in
            if tags = [] then
              problems :=
                {
                  site = s.site;
                  decision;
                  reason = (match s.reasons with r :: _ -> r | [] -> "-");
                  detail = "decision carries no admissible FACT case";
                }
                :: !problems
            else
              List.iter
                (fun r ->
                  problems :=
                    {
                      site = s.site;
                      decision;
                      reason = r;
                      detail = "tag outside the proof's case analysis";
                    }
                    :: !problems)
                unknown)
    result.sites;
  match List.rev !problems with [] -> Ok () | ps -> Error ps
