(* The span view over the event log: a recorder is a {!Trace.t} with
   its span view on.  Span, instant and flow records are written into
   the log's store through its span writers (names and categories
   interned in the log's one table) and read back through
   [Trace.iter_events]; the exporters below only see events. *)

type t = Trace.t

type kind = Trace.kind =
  | Span_begin
  | Span_end
  | Instant
  | Flow_start
  | Flow_end

type event = {
  at : Vtime.t;
  kind : kind;
  site : int;
  tid : int;
  name : string;
  cat : string;
  flow : int;
}

let create () = Trace.recorder ()

let disabled = Trace.create ~enabled:false ()

let enabled = Trace.spans

let log t ~text =
  if Trace.spans t then begin
    Trace.set_text t text;
    t
  end
  else Trace.create ~enabled:text ()

let num_events = Trace.events

let span_begin t ~at ~site ~tid ?(cat = "phase") name =
  if Trace.spans t then
    Trace.span_begin t ~at ~site ~tid ~cat:(Trace.intern t cat)
      ~name:(Trace.intern t name) ~topic:Trace.no_topic Trace.no_text 0 0 0 0

let span_end = Trace.span_end

let open_depth = Trace.open_depth

let close_open_spans = Trace.close_open_spans

let instant t ~at ~site ~tid ?(cat = "mark") name =
  if Trace.spans t then
    Trace.instant t ~at ~site ~tid ~cat:(Trace.intern t cat)
      ~name:(Trace.intern t name) ~topic:Trace.no_topic Trace.no_text 0 0 0 0

let flow_start t ~at ~site ~tid ?(cat = "net") name =
  if not (Trace.spans t) then 0
  else
    Trace.flow_start t ~at ~site ~tid ~cat:(Trace.intern t cat)
      ~name:(Trace.intern t name) ~topic:Trace.no_topic Trace.no_text 0 0 0 0

let flow_end t ~at ~site ~tid flow =
  if Trace.spans t then
    Trace.flow_end t ~at ~site ~tid ~flow ~topic:Trace.no_topic Trace.no_text
      0 0 0 0

let fold_closed_spans = Trace.fold_span_ends

let name_string = Trace.lookup

let iter t f =
  Trace.iter_events t (fun kind at site tid name cat flow ->
      f { at; kind; site; tid; name; cat; flow })

(* ---- export ------------------------------------------------------------ *)

let add_escaped buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let add_str_field buf key value =
  Buffer.add_char buf '"';
  Buffer.add_string buf key;
  Buffer.add_string buf "\":\"";
  add_escaped buf value;
  Buffer.add_char buf '"'

let add_int_field buf key value =
  Buffer.add_char buf '"';
  Buffer.add_string buf key;
  Buffer.add_string buf "\":";
  Buffer.add_string buf (string_of_int value)

let key ev = (ev.site lsl 32) lor (ev.tid land 0xFFFFFFFF)

(* Distinct sites and (site, tid) tracks, in sorted order, for the
   trace_event metadata records. *)
let tracks events =
  let tracks = List.sort_uniq Int.compare (List.map key events) in
  let sites =
    List.sort_uniq Int.compare (List.map (fun k -> k lsr 32) tracks)
  in
  (sites, List.map (fun k -> (k lsr 32, k land 0xFFFFFFFF)) tracks)

let site_name site = if site = 0 then "runtime" else "site " ^ string_of_int site

(* Chrome trace_event JSON (the Perfetto / chrome://tracing format).
   pid = site, tid = transaction id, ts = virtual ticks read as
   microseconds.  Metadata records name the tracks; "B"/"E" pairs are
   the spans, "i" the instants, and "s"/"f" the message-flow arrows
   (bound by matching name + cat + id, each enclosed by a span on its
   track). *)
let to_trace_event_json t =
  let events = ref [] in
  iter t (fun ev -> events := ev :: !events);
  let events = List.rev !events in
  let buf = Buffer.create ((num_events t * 96) + 1024) in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_char buf ',';
    Buffer.add_string buf "\n "
  in
  let sites, tracks = tracks events in
  List.iter
    (fun site ->
      sep ();
      Buffer.add_string buf "{\"ph\":\"M\",\"name\":\"process_name\",";
      add_int_field buf "pid" site;
      Buffer.add_string buf ",\"tid\":0,\"args\":{";
      add_str_field buf "name" (site_name site);
      Buffer.add_string buf "}}")
    sites;
  List.iter
    (fun (site, tid) ->
      sep ();
      Buffer.add_string buf "{\"ph\":\"M\",\"name\":\"thread_name\",";
      add_int_field buf "pid" site;
      Buffer.add_char buf ',';
      add_int_field buf "tid" tid;
      Buffer.add_string buf ",\"args\":{";
      add_str_field buf "name" ("t" ^ string_of_int tid);
      Buffer.add_string buf "}}")
    tracks;
  List.iter
    (fun ev ->
      sep ();
      Buffer.add_string buf "{\"ph\":\"";
      Buffer.add_string buf
        (match ev.kind with
        | Span_begin -> "B"
        | Span_end -> "E"
        | Instant -> "i"
        | Flow_start -> "s"
        | Flow_end -> "f");
      Buffer.add_string buf "\",";
      add_int_field buf "pid" ev.site;
      Buffer.add_char buf ',';
      add_int_field buf "tid" ev.tid;
      Buffer.add_char buf ',';
      add_int_field buf "ts" (Vtime.to_int ev.at);
      Buffer.add_char buf ',';
      add_str_field buf "name" ev.name;
      Buffer.add_char buf ',';
      add_str_field buf "cat" ev.cat;
      (match ev.kind with
      | Instant -> Buffer.add_string buf ",\"s\":\"t\""
      | Flow_start ->
          Buffer.add_char buf ',';
          add_int_field buf "id" ev.flow
      | Flow_end ->
          Buffer.add_char buf ',';
          add_int_field buf "id" ev.flow;
          Buffer.add_string buf ",\"bp\":\"e\""
      | Span_begin | Span_end -> ());
      Buffer.add_char buf '}')
    events;
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

type span = {
  s_site : int;
  s_tid : int;
  s_name : string;
  s_cat : string;
  s_begin : Vtime.t;
  s_end : Vtime.t;
}

type edge = {
  e_name : string;
  e_cat : string;
  e_id : int;
  e_src_site : int;
  e_src_tid : int;
  e_sent : Vtime.t;
  e_dst_site : int;
  e_dst_tid : int;
  e_recv : Vtime.t;
}

(* Pair up begins/ends (per-track stacks) and flow starts/ends into
   closed spans and causality edges.  Events still open when the
   recorder stopped are dropped — harnesses call [close_open_spans]
   first, so nothing is normally lost.  Names are rendered here, at
   export time; the sorts below compare the rendered strings so the
   artifact is unchanged by the packed storage. *)
let reconstruct t =
  let stacks : (int, (string * string * Vtime.t) list) Hashtbl.t =
    Hashtbl.create 64
  in
  let starts : (int, event) Hashtbl.t = Hashtbl.create 256 in
  let spans = ref [] and edges = ref [] in
  iter t (fun ev ->
      let k = key ev in
      match ev.kind with
      | Span_begin ->
          let stack =
            match Hashtbl.find_opt stacks k with Some s -> s | None -> []
          in
          Hashtbl.replace stacks k ((ev.name, ev.cat, ev.at) :: stack)
      | Span_end -> (
          match Hashtbl.find_opt stacks k with
          | None | Some [] -> ()
          | Some ((name, cat, began) :: rest) ->
              Hashtbl.replace stacks k rest;
              spans :=
                {
                  s_site = ev.site;
                  s_tid = ev.tid;
                  s_name = name;
                  s_cat = cat;
                  s_begin = began;
                  s_end = ev.at;
                }
                :: !spans)
      | Instant -> ()
      | Flow_start -> Hashtbl.replace starts ev.flow ev
      | Flow_end -> (
          match Hashtbl.find_opt starts ev.flow with
          | None -> ()
          | Some src ->
              Hashtbl.remove starts ev.flow;
              edges :=
                {
                  e_name = ev.name;
                  e_cat = ev.cat;
                  e_id = ev.flow;
                  e_src_site = src.site;
                  e_src_tid = src.tid;
                  e_sent = src.at;
                  e_dst_site = ev.site;
                  e_dst_tid = ev.tid;
                  e_recv = ev.at;
                }
                :: !edges));
  (!spans, !edges)

(* The causality DAG: every closed span as a node and every completed
   send->recv flow as an edge, both name-sorted so the artifact is a
   stable, diffable summary of "what depended on what". *)
let to_causality_json t =
  let spans, edges = reconstruct t in
  let spans =
    List.sort
      (fun a b ->
        let c = String.compare a.s_name b.s_name in
        if c <> 0 then c
        else
          let c = Int.compare a.s_site b.s_site in
          if c <> 0 then c
          else
            let c = Int.compare a.s_tid b.s_tid in
            if c <> 0 then c
            else
              let c = Vtime.compare a.s_begin b.s_begin in
              if c <> 0 then c else Vtime.compare a.s_end b.s_end)
      spans
  in
  let edges =
    List.sort
      (fun a b ->
        let c = String.compare a.e_name b.e_name in
        if c <> 0 then c
        else
          let c = Vtime.compare a.e_sent b.e_sent in
          if c <> 0 then c else Int.compare a.e_id b.e_id)
      edges
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"spans\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "\n {";
      add_str_field buf "name" s.s_name;
      Buffer.add_char buf ',';
      add_str_field buf "cat" s.s_cat;
      Buffer.add_char buf ',';
      add_int_field buf "site" s.s_site;
      Buffer.add_char buf ',';
      add_int_field buf "tid" s.s_tid;
      Buffer.add_char buf ',';
      add_int_field buf "begin" (Vtime.to_int s.s_begin);
      Buffer.add_char buf ',';
      add_int_field buf "end" (Vtime.to_int s.s_end);
      Buffer.add_char buf '}')
    spans;
  Buffer.add_string buf "\n],\"edges\":[";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "\n {";
      add_str_field buf "name" e.e_name;
      Buffer.add_char buf ',';
      add_str_field buf "cat" e.e_cat;
      Buffer.add_char buf ',';
      add_int_field buf "id" e.e_id;
      Buffer.add_char buf ',';
      add_int_field buf "src_site" e.e_src_site;
      Buffer.add_char buf ',';
      add_int_field buf "src_tid" e.e_src_tid;
      Buffer.add_char buf ',';
      add_int_field buf "sent_at" (Vtime.to_int e.e_sent);
      Buffer.add_char buf ',';
      add_int_field buf "dst_site" e.e_dst_site;
      Buffer.add_char buf ',';
      add_int_field buf "dst_tid" e.e_dst_tid;
      Buffer.add_char buf ',';
      add_int_field buf "recv_at" (Vtime.to_int e.e_recv);
      Buffer.add_char buf '}')
    edges;
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf
