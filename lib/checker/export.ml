type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list

let escape s =
  let buffer = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buffer "\\\""
      | '\\' -> Buffer.add_string buffer "\\\\"
      | '\n' -> Buffer.add_string buffer "\\n"
      | '\r' -> Buffer.add_string buffer "\\r"
      | '\t' -> Buffer.add_string buffer "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buffer (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buffer c)
    s;
  Buffer.contents buffer

let rec write buffer = function
  | Null -> Buffer.add_string buffer "null"
  | Bool b -> Buffer.add_string buffer (if b then "true" else "false")
  | Int i -> Buffer.add_string buffer (string_of_int i)
  | Float f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string buffer (Printf.sprintf "%.1f" f)
      else Buffer.add_string buffer (Printf.sprintf "%.6g" f)
  | String s ->
      Buffer.add_char buffer '"';
      Buffer.add_string buffer (escape s);
      Buffer.add_char buffer '"'
  | List items ->
      Buffer.add_char buffer '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buffer ',';
          write buffer item)
        items;
      Buffer.add_char buffer ']'
  | Obj fields ->
      Buffer.add_char buffer '{';
      List.iteri
        (fun i (key, value) ->
          if i > 0 then Buffer.add_char buffer ',';
          write buffer (String key);
          Buffer.add_char buffer ':';
          write buffer value)
        fields;
      Buffer.add_char buffer '}'

let to_string json =
  let buffer = Buffer.create 256 in
  write buffer json;
  Buffer.contents buffer

let pp fmt json = Format.pp_print_string fmt (to_string json)

(* A recursive-descent parser for the same dialect [to_string] emits
   (the container is sealed, so round-tripping our own output cannot
   lean on an external JSON library).  Numbers without '.', 'e' or 'E'
   parse as [Int]; anything fractional as [Float]. *)
exception Parse_error of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then (
      pos := !pos + l;
      value)
    else fail (Printf.sprintf "expected %s" word)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = int_of_string ("0x" ^ String.sub s !pos 4) in
    pos := !pos + 4;
    v
  in
  let parse_string () =
    expect '"';
    let buffer = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
          incr pos;
          (if !pos >= n then fail "truncated escape"
           else
             match s.[!pos] with
             | '"' -> Buffer.add_char buffer '"'; incr pos
             | '\\' -> Buffer.add_char buffer '\\'; incr pos
             | '/' -> Buffer.add_char buffer '/'; incr pos
             | 'n' -> Buffer.add_char buffer '\n'; incr pos
             | 'r' -> Buffer.add_char buffer '\r'; incr pos
             | 't' -> Buffer.add_char buffer '\t'; incr pos
             | 'b' -> Buffer.add_char buffer '\b'; incr pos
             | 'f' -> Buffer.add_char buffer '\012'; incr pos
             | 'u' ->
                 incr pos;
                 let v = hex4 () in
                 (* Enough UTF-8 for our own output: [escape] only emits
                    \u for control characters, but accept the BMP. *)
                 if v < 0x80 then Buffer.add_char buffer (Char.chr v)
                 else if v < 0x800 then (
                   Buffer.add_char buffer (Char.chr (0xC0 lor (v lsr 6)));
                   Buffer.add_char buffer (Char.chr (0x80 lor (v land 0x3F))))
                 else (
                   Buffer.add_char buffer (Char.chr (0xE0 lor (v lsr 12)));
                   Buffer.add_char buffer
                     (Char.chr (0x80 lor ((v lsr 6) land 0x3F)));
                   Buffer.add_char buffer (Char.chr (0x80 lor (v land 0x3F))))
             | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
          loop ()
      | c ->
          Buffer.add_char buffer c;
          incr pos;
          loop ()
    in
    loop ();
    Buffer.contents buffer
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then incr pos;
    let fractional = ref false in
    let rec digits () =
      match peek () with
      | Some ('0' .. '9') -> incr pos; digits ()
      | Some ('.' | 'e' | 'E' | '+' | '-') ->
          fractional := true;
          incr pos;
          digits ()
      | _ -> ()
    in
    digits ();
    if !pos = start then fail "expected number";
    let text = String.sub s start (!pos - start) in
    if !fractional then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail "malformed number"
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> fail "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then (
          incr pos;
          Obj [])
        else
          let rec fields acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let value = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                fields ((key, value) :: acc)
            | Some '}' ->
                incr pos;
                List.rev ((key, value) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (fields [])
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then (
          incr pos;
          List [])
        else
          let rec items acc =
            let value = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                items (value :: acc)
            | Some ']' ->
                incr pos;
                List.rev (value :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          List (items [])
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected '%c'" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let sites_json sites = List (List.map (fun s -> Int (Site_id.to_int s)) sites)

let of_verdict (v : Verdict.t) =
  Obj
    [
      ( "outcome",
        String
          (match Verdict.outcome v with
          | `Committed -> "committed"
          | `Aborted -> "aborted"
          | `Mixed -> "mixed"
          | `Undecided -> "undecided") );
      ("atomic", Bool v.atomic);
      ("resilient", Bool (Verdict.resilient v));
      ("committed", sites_json v.committed);
      ("aborted", sites_json v.aborted);
      ("blocked", sites_json v.blocked);
      ("vacuous", sites_json v.vacuous);
      ("crashed", sites_json v.crashed);
      ( "max_decision_time",
        match v.max_decision_time with Some t -> Int t | None -> Null );
    ]

let of_summary (s : Sweep.summary) =
  let examples pairs =
    List
      (List.map
         (fun (config, v) ->
           Obj
             [
               ("scenario", String (Scenario.config_id config));
               ("verdict", of_verdict v);
             ])
         pairs)
  in
  Obj
    [
      ("protocol", String s.protocol);
      ("runs", Int s.runs);
      ("violations", Int s.violations);
      ("blocked_runs", Int s.blocked_runs);
      ("committed", Int s.committed);
      ("aborted", Int s.aborted);
      ("undecided", Int s.undecided);
      ( "max_decision_time",
        match s.max_decision_time with Some t -> Int t | None -> Null );
      ("total_decision_time", Int s.total_decision_time);
      ( "mean_decision_time",
        match Sweep.mean_decision_time s with
        | Some mean -> Float mean
        | None -> Null );
      ("violation_examples", examples s.violation_examples);
      ("blocked_examples", examples s.blocked_examples);
    ]

let of_stats (s : Stats.t) =
  Obj
    [
      ("count", Int s.count);
      ("min", Int s.min);
      ("p50", Int s.p50);
      ("p90", Int s.p90);
      ("p95", Int s.p95);
      ("p99", Int s.p99);
      ("max", Int s.max);
      ("mean", Float s.mean);
    ]
