(* What a benchmark run prints: one [workload metric value unit] line
   per metric, then, as the last line of standard output, the result
   object [{correct, attempted, failed, metrics}].  [--json FILE]
   appends the fuller record of the run to FILE as one JSON line.

   Documents are built as [Export.json] values but printed here, with
   every float digit kept: [Export.to_string] rounds floats to six
   significant digits, and a measurement must reach the reader as
   measured. *)

type result = {
  workload : string;
  seed : int;
  traced : bool;
  reps : int;
  attempted : int;
  failed : int;
  errors : string list;
  digest : string;
  metrics : (string * float) list;  (** catalog metrics *)
  info : (string * float * string) list;  (** bases and counts: name, value, unit *)
}

(* The shortest decimal form that reads back as the same float. *)
let float_text f =
  if not (Float.is_finite f) then "null"
  else
    let rec go digits =
      let s = Printf.sprintf "%.*g" digits f in
      if digits >= 17 || Float.equal (float_of_string s) f then s else go (digits + 1)
    in
    let s = go 15 in
    if String.contains s '.' || String.contains s 'e' then s
    else s ^ ".0"

let escape b s =
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let to_string json =
  let b = Buffer.create 1024 in
  let rec go = function
    | Export.Null -> Buffer.add_string b "null"
    | Export.Bool v -> Buffer.add_string b (string_of_bool v)
    | Export.Int i -> Buffer.add_string b (string_of_int i)
    | Export.Float f -> Buffer.add_string b (float_text f)
    | Export.String s ->
        Buffer.add_char b '"';
        escape b s;
        Buffer.add_char b '"'
    | Export.List items ->
        Buffer.add_char b '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char b ',';
            go item)
          items;
        Buffer.add_char b ']'
    | Export.Obj fields ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            go (Export.String k);
            Buffer.add_char b ':';
            go v)
          fields;
        Buffer.add_char b '}'
  in
  go json;
  Buffer.contents b

let unit_of name =
  match Catalog.find name with Some m -> m.unit | None -> "?"

let print_lines r =
  List.iter
    (fun (name, v) ->
      Printf.printf "%s %s %s %s\n" r.workload name (float_text v) (unit_of name))
    r.metrics;
  List.iter
    (fun (name, v, u) -> Printf.printf "%s %s %s %s\n" r.workload name (float_text v) u)
    r.info;
  Printf.printf "%s output_digest %s md5\n" r.workload r.digest

let value_obj v unit = Export.Obj [ ("value", Export.Float v); ("unit", Export.String unit) ]

let metrics_obj r =
  Export.Obj (List.map (fun (name, v) -> (name, value_obj v (unit_of name))) r.metrics)

let result_line r =
  Export.Obj
    [
      ("correct", Export.Bool (r.errors = []));
      ("attempted", Export.Int r.attempted);
      ("failed", Export.Int r.failed);
      ("metrics", metrics_obj r);
    ]

let record r =
  Export.Obj
    [
      ("schema", Export.Int 1);
      ("workload", Export.String r.workload);
      ("seed", Export.Int r.seed);
      ("trace", Export.Bool r.traced);
      ("reps", Export.Int r.reps);
      ("correct", Export.Bool (r.errors = []));
      ("attempted", Export.Int r.attempted);
      ("failed", Export.Int r.failed);
      ("output_digest", Export.String r.digest);
      ("errors", Export.List (List.map (fun e -> Export.String e) r.errors));
      ("metrics", metrics_obj r);
      ("info", Export.Obj (List.map (fun (name, v, u) -> (name, value_obj v u)) r.info));
    ]

let append_record path r =
  let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path in
  output_string oc (to_string (record r));
  output_char oc '\n';
  close_out oc
