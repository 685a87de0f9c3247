let collect_window_mult = 5

let wait_window_mult = 6

let probe_window_mult = 5

type case =
  | Case_1
  | Case_2_1
  | Case_2_2_1
  | Case_2_2_2
  | Case_3_1
  | Case_3_2_1
  | Case_3_2_2_1
  | Case_3_2_2_2

let all_cases =
  [
    Case_1;
    Case_2_1;
    Case_2_2_1;
    Case_2_2_2;
    Case_3_1;
    Case_3_2_1;
    Case_3_2_2_1;
    Case_3_2_2_2;
  ]

let case_name = function
  | Case_1 -> "1"
  | Case_2_1 -> "2.1"
  | Case_2_2_1 -> "2.2.1"
  | Case_2_2_2 -> "2.2.2"
  | Case_3_1 -> "3.1"
  | Case_3_2_1 -> "3.2.1"
  | Case_3_2_2_1 -> "3.2.2.1"
  | Case_3_2_2_2 -> "3.2.2.2"

let pp_case fmt c = Format.fprintf fmt "case %s" (case_name c)

let case_bound_mult = function
  | Case_1 -> None
  | Case_2_1 -> Some 1
  | Case_2_2_1 -> Some 4
  | Case_2_2_2 -> Some 5
  | Case_3_1 -> Some 1
  | Case_3_2_1 -> None
  | Case_3_2_2_1 -> Some 4
  | Case_3_2_2_2 -> None
