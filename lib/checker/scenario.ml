let all_cuts ~n =
  let slaves = Site_id.slaves ~n in
  let rec subsets = function
    | [] -> [ [] ]
    | x :: rest ->
        let rest_subsets = subsets rest in
        rest_subsets @ List.map (fun s -> x :: s) rest_subsets
  in
  subsets slaves
  |> List.filter (fun s -> s <> [])
  |> List.map Site_id.Set.of_list
  |> List.sort (fun a b ->
         let c = Int.compare (Site_id.Set.cardinal a) (Site_id.Set.cardinal b) in
         if c <> 0 then c else Site_id.Set.compare a b)

let instants ~t_unit ~until_mult ~per_t =
  if until_mult <= 0 || per_t <= 0 then
    invalid_arg "Scenario.instants: positive arguments required";
  let step = Stdlib.max 1 (Vtime.to_int t_unit / per_t) in
  let horizon = until_mult * Vtime.to_int t_unit in
  let rec go acc at = if at > horizon then List.rev acc else go (at :: acc) (at + step) in
  go [] step

type grid = {
  cuts : Site_id.Set.t list;
  starts : Vtime.t list;
  heals_after : Vtime.t option list;
  delays : Delay.t list;
  seeds : int64 list;
  votes : (Site_id.t * bool) list list;
  crashes : (Site_id.t * Vtime.t) list list;
}

let default_grid ~n ~t_unit =
  {
    cuts = all_cuts ~n;
    starts = instants ~t_unit ~until_mult:8 ~per_t:4;
    heals_after = [ None ];
    delays = [ Delay.minimal; Delay.full ~t_max:t_unit; Delay.uniform ~t_max:t_unit ];
    seeds = [ 1L; 42L; 1987L ];
    votes = [ [] ];
    crashes = [ [] ];
  }

(* The saturation grid: everything in [default_grid] crossed with heal
   timelines and ten seeds — tens of thousands of runs once a couple of
   protocols and site counts are in play, which is what a multi-core
   box needs before domain parallelism has anything to chew on. *)
let large_grid ~n ~t_unit =
  let t = Vtime.to_int t_unit in
  {
    cuts = all_cuts ~n;
    starts = instants ~t_unit ~until_mult:8 ~per_t:4;
    heals_after =
      [
        None;
        Some (Vtime.of_int t);
        Some (Vtime.of_int (3 * t));
        Some (Vtime.of_int (6 * t));
      ];
    delays =
      [ Delay.minimal; Delay.full ~t_max:t_unit; Delay.uniform ~t_max:t_unit ];
    seeds = List.init 10 (fun i -> Int64.of_int (i + 1));
    votes = [ [] ];
    crashes = [ [] ];
  }

let master_crash_grid ~t_unit =
  {
    cuts = [ Site_id.Set.empty ];
    starts = [ Vtime.zero ];
    heals_after = [ None ];
    delays =
      [ Delay.minimal; Delay.full ~t_max:t_unit; Delay.uniform ~t_max:t_unit ];
    seeds = [ 1L; 42L; 1987L ];
    votes = [ [] ];
    crashes =
      List.map
        (fun at -> [ (Site_id.master, at) ])
        (instants ~t_unit ~until_mult:6 ~per_t:2);
  }

let configs ~base grid =
  let acc = ref [] in
  List.iter
    (fun cut ->
      List.iter
        (fun start ->
          List.iter
            (fun heal ->
              (* One partition value for every config that shares this
                 cut, start and heal. *)
              let partition =
                if Site_id.Set.is_empty cut then Partition.none
                else
                  Partition.make
                    ?heals_at:(Option.map (fun d -> Vtime.add start d) heal)
                    ~group2:cut ~starts_at:start ~n:base.Runner.n ()
              in
              List.iter
                (fun delay ->
                  List.iter
                    (fun seed ->
                      List.iter
                        (fun votes ->
                          List.iter
                            (fun crashes ->
                              acc :=
                                {
                                  base with
                                  Runner.partition;
                                  delay;
                                  seed;
                                  votes;
                                  crashes;
                                }
                                :: !acc)
                            grid.crashes)
                        grid.votes)
                    grid.seeds)
                grid.delays)
            grid.heals_after)
        grid.starts)
    grid.cuts;
  List.rev !acc

(* All set partitions of [sites], via the standard recursion: place each
   element into an existing block or a new one. *)
let set_partitions sites =
  let rec go = function
    | [] -> [ [] ]
    | x :: rest ->
        let smaller = go rest in
        List.concat_map
          (fun blocks ->
            let with_new = [ x ] :: blocks in
            let into_existing =
              List.mapi
                (fun i _ ->
                  List.mapi
                    (fun j block -> if i = j then x :: block else block)
                    blocks)
                blocks
            in
            with_new :: into_existing)
          smaller
  in
  go sites

let all_multi_cuts ~n =
  set_partitions (Site_id.all ~n)
  |> List.filter (fun blocks -> List.length blocks >= 3)
  |> List.map (List.map Site_id.Set.of_list)

let multi_configs ~base ~starts ~delays ~seeds =
  let acc = ref [] in
  List.iter
    (fun groups ->
      List.iter
        (fun start ->
          let partition =
            Partition.make_multiple ~groups ~starts_at:start ~n:base.Runner.n ()
          in
          List.iter
            (fun delay ->
              List.iter
                (fun seed ->
                  acc := { base with Runner.partition; delay; seed } :: !acc)
                seeds)
            delays)
        starts)
    (all_multi_cuts ~n:base.Runner.n);
  List.rev !acc

let config_id (config : Runner.config) =
  Format.asprintf "n=%d %a delay=%a seed=%Ld%s%s" config.n Partition.pp
    config.partition Delay.pp config.delay config.seed
    (if config.votes = [] then ""
     else
       " votes="
       ^ String.concat ","
           (List.map
              (fun (s, v) ->
                Format.asprintf "%a:%s" Site_id.pp s (if v then "y" else "n"))
              config.votes))
    (if config.crashes = [] then ""
     else
       " crash="
       ^ String.concat ","
           (List.map
              (fun (s, at) ->
                Format.asprintf "%a@%d" Site_id.pp s (Vtime.to_int at))
              config.crashes))
