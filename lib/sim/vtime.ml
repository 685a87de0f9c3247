type t = int

let zero = 0

let infinity = max_int

let add a b =
  if a = infinity || b = infinity then infinity
  else
    let s = a + b in
    if s < 0 then infinity else s

let sub a b = if a = infinity then infinity else Stdlib.max 0 (a - b)

let compare = Int.compare

let ( <= ) (a : t) (b : t) = Stdlib.( <= ) a b

let ( < ) (a : t) (b : t) = Stdlib.( < ) a b

let min (a : t) (b : t) = Stdlib.min a b

let max (a : t) (b : t) = Stdlib.max a b

let of_int n =
  if n < 0 then invalid_arg "Vtime.of_int: negative" else n

let to_int t = t

let pp fmt t =
  if t = infinity then Format.pp_print_string fmt "inf"
  else Format.fprintf fmt "%d" t

let buf b t =
  if t = infinity then Buffer.add_string b "inf"
  else Buffer.add_string b (string_of_int t)

let pp_in_t ~unit_t fmt t =
  if t = infinity then Format.pp_print_string fmt "infT"
  else Format.fprintf fmt "%.2fT" (float_of_int t /. float_of_int unit_t)
