type phase = {
  cells : Site_id.Set.t list;  (* master's cell first *)
  cell_of : int array;  (* site -> its index in [cells]; -1 for none *)
  starts_at : Vtime.t;
  heals_at : Vtime.t option;
}

(* Chronological, non-overlapping phases; [] = never partitioned. *)
type t = phase list

let validate_heal ~starts_at heals_at =
  match heals_at with
  | Some h when Vtime.( <= ) h starts_at ->
      invalid_arg "Partition: heals_at must be after starts_at"
  | Some _ | None -> ()

(* [cells] lie within 1..n, so the map has a slot for each of their sites. *)
let phase ~cells ~starts_at ~heals_at ~n =
  let cell_of = Array.make (n + 1) (-1) in
  List.iteri
    (fun i cell ->
      Site_id.Set.iter (fun s -> cell_of.(Site_id.to_int s) <- i) cell)
    cells;
  { cells; cell_of; starts_at; heals_at }

let make_multiple ?heals_at ~groups ~starts_at ~n () =
  if List.length groups < 2 then
    invalid_arg "Partition.make_multiple: need at least two groups";
  if List.exists Site_id.Set.is_empty groups then
    invalid_arg "Partition.make_multiple: empty group";
  let universe = Site_id.Set.of_list (Site_id.all ~n) in
  let union = List.fold_left Site_id.Set.union Site_id.Set.empty groups in
  let total = List.fold_left (fun acc g -> acc + Site_id.Set.cardinal g) 0 groups in
  if not (Site_id.Set.equal union universe) || total <> n then
    invalid_arg
      "Partition.make_multiple: groups must be disjoint and cover 1..n";
  validate_heal ~starts_at heals_at;
  let master_cell, others =
    List.partition (fun g -> Site_id.Set.mem Site_id.master g) groups
  in
  [ phase ~cells:(master_cell @ others) ~starts_at ~heals_at ~n ]

let make ?heals_at ~group2 ~starts_at ~n () =
  if Site_id.Set.is_empty group2 then
    invalid_arg "Partition.make: G2 is empty — not a partition";
  if Site_id.Set.mem Site_id.master group2 then
    invalid_arg
      "Partition.make: the master belongs to G1 by the paper's convention";
  let universe = Site_id.Set.of_list (Site_id.all ~n) in
  if not (Site_id.Set.subset group2 universe) then
    invalid_arg "Partition.make: G2 mentions a site outside 1..n";
  if Site_id.Set.cardinal group2 >= n then
    invalid_arg "Partition.make: G2 covers every site";
  validate_heal ~starts_at heals_at;
  let group1 = Site_id.Set.diff universe group2 in
  [ phase ~cells:[ group1; group2 ] ~starts_at ~heals_at ~n ]

let none = []

let sequence partitions =
  let phases = List.concat partitions in
  let sorted =
    List.sort (fun a b -> Vtime.compare a.starts_at b.starts_at) phases
  in
  let rec check = function
    | a :: (b :: _ as rest) ->
        (match a.heals_at with
        | None ->
            invalid_arg
              "Partition.sequence: a never-healing phase cannot precede \
               another"
        | Some h when Vtime.( < ) b.starts_at h ->
            invalid_arg "Partition.sequence: phases overlap"
        | Some _ -> ());
        check rest
    | [ _ ] | [] -> ()
  in
  check sorted;
  sorted

let first_cells t = match t with [] -> [] | phase :: _ -> phase.cells

let groups t = first_cells t

let group_count t = List.length (first_cells t)

let phase_count t = List.length t

let is_simple t = group_count t = 2 && phase_count t <= 1

let group2 t =
  match first_cells t with
  | [] -> Site_id.Set.empty
  | _ :: others -> List.fold_left Site_id.Set.union Site_id.Set.empty others

let group1 t ~n =
  match first_cells t with
  | [] -> Site_id.Set.of_list (Site_id.all ~n)
  | master_cell :: _ -> master_cell

let starts_at t =
  match t with [] -> Vtime.infinity | phase :: _ -> phase.starts_at

let heals_at t =
  match List.rev t with [] -> None | last :: _ -> last.heals_at

let is_transient t = t <> [] && List.for_all (fun p -> p.heals_at <> None) t

let phase_active phase (at : Vtime.t) =
  phase.starts_at <= at
  && match phase.heals_at with None -> true | Some h -> at < h

let active_phase t at = List.find_opt (fun phase -> phase_active phase at) t

let active_at t at = active_phase t at <> None

(* How many connected components the network has at [at]: 1 while no
   phase is active (fully connected), else that phase's cell count. *)
let components_at t ~at =
  match active_phase t at with
  | None -> 1
  | Some phase -> List.length phase.cells

let cell phase (site : Site_id.t) =
  let i = (site :> int) in
  if i < Array.length phase.cell_of then phase.cell_of.(i) else -1

let side t site =
  match t with phase :: _ when cell phase site > 0 -> `G2 | _ -> `G1

(* Asked at every message arrival: a plain walk of the phases, with no
   closure, no option and no call out of this module (a dev build
   inlines none), and two array reads in the active phase. *)
let rec separated t ~at a b =
  match t with
  | [] -> false
  | phase :: rest ->
      if phase_active phase at then cell phase a <> cell phase b
      else separated rest ~at a b

let pp_phase fmt phase =
  match phase.cells with
  | [ _; g2 ] ->
      Format.fprintf fmt "partition@%a G2=%a%s" Vtime.pp phase.starts_at
        Site_id.pp_set g2
        (match phase.heals_at with
        | None -> ""
        | Some h -> Format.asprintf " heals@%a" Vtime.pp h)
  | cells ->
      Format.fprintf fmt "multi-partition@%a %a%s" Vtime.pp phase.starts_at
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.pp_print_string fmt "|")
           Site_id.pp_set)
        cells
        (match phase.heals_at with
        | None -> ""
        | Some h -> Format.asprintf " heals@%a" Vtime.pp h)

let pp fmt t =
  match t with
  | [] -> Format.pp_print_string fmt "no-partition"
  | [ phase ] -> pp_phase fmt phase
  | phases ->
      Format.pp_print_list
        ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " then ")
        pp_phase fmt phases
