type t = int

let of_int i =
  if i < 1 then invalid_arg "Site_id.of_int: sites are numbered from 1" else i

let to_int t = t

let master = 1

let is_master t = t = master

let equal = Int.equal

let compare = Int.compare

let pp fmt t =
  if t = master then Format.pp_print_string fmt "master"
  else Format.fprintf fmt "site%d" t

let buf b t =
  if t = master then Buffer.add_string b "master"
  else begin
    Buffer.add_string b "site";
    Buffer.add_string b (string_of_int t)
  end

let all ~n =
  if n < 1 then invalid_arg "Site_id.all: need at least one site";
  List.init n (fun i -> i + 1)

let slaves ~n = List.filter (fun s -> s <> master) (all ~n)

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)

let set_of_ints ints = Set.of_list (List.map of_int ints)

(* Sets rendered through trace templates travel as a bitmask int (bit
   [i] = site [i+1]); ascending bit order matches [Set.elements]. *)
let set_to_mask set = Set.fold (fun s acc -> acc lor (1 lsl (s - 1))) set 0

let buf_set_mask b mask =
  Buffer.add_char b '{';
  let first = ref true in
  let m = ref mask in
  let site = ref 1 in
  while !m <> 0 do
    if !m land 1 = 1 then begin
      if not !first then Buffer.add_char b ',';
      first := false;
      buf b !site
    end;
    incr site;
    m := !m lsr 1
  done;
  Buffer.add_char b '}'

let pp_set fmt set =
  Format.fprintf fmt "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ",")
       pp)
    (Set.elements set)
