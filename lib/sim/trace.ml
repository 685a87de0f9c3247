type entry = { at : Vtime.t; topic : string; text : string }

(* ------------------------------------------------------------------ *)
(* Template registry                                                   *)
(*                                                                     *)
(* A template is a renderer closure registered once, at module-init    *)
(* time, by the library that owns the format (network, protocols, tm,  *)
(* cluster).  The registry is global mutable state shared by every     *)
(* log; it is only ever written before any worker domain spawns, so    *)
(* the parallel sweeps read it without synchronisation.  It is the     *)
(* only renderer registry: payload renderers and coded span names are  *)
(* templates too.                                                      *)
(* ------------------------------------------------------------------ *)

type renderer =
  Buffer.t -> (int -> string) -> int -> int -> int -> int -> int -> unit

type template = int

let renderers = ref (Array.make 16 (None : renderer option))

let n_renderers = ref 0

let register_template r =
  let i = !n_renderers in
  if i = Array.length !renderers then begin
    let grown = Array.make (2 * i) None in
    Array.blit !renderers 0 grown 0 i;
    renderers := grown
  end;
  !renderers.(i) <- Some r;
  incr n_renderers;
  i

let render buf lookup tmpl a0 a1 a2 a3 =
  match !renderers.(tmpl) with
  | Some r -> r buf lookup a0 a1 a2 a3 0
  | None -> Buffer.add_string buf "<unregistered template>"

let render_arg buf lookup tmpl a0 = render buf lookup tmpl a0 0 0 0

(* The built-in template for static (or per-call interned) text: arg 0
   is a string id in the log's intern table. *)
let text_template =
  register_template (fun buf lookup a0 _ _ _ _ ->
      Buffer.add_string buf (lookup a0))

let no_text = -1

let template_name tmpl = -tmpl - 1

(* ------------------------------------------------------------------ *)
(* Storage                                                             *)
(*                                                                     *)
(* A record is [stride] consecutive ints in one flat array:            *)
(*   0  virtual time                                                   *)
(*   1  kind (bits 0-2, 0 = no span part), text topic (bits 3-30),     *)
(*      span category (bits 31-58)                                     *)
(*   2  text template, or [no_text]                                    *)
(*   3-6  four template arguments                                      *)
(*   7  span track: (site lsl 32) lor tid                              *)
(*   8  span name (an interned id, or [template_name t]: rendered by    *)
(*      [t] from this record's arguments); for a span end the number   *)
(*      of its begin record, for a flow end the flow id                *)
(* A moment that is both a trace line and a span event (a send, a      *)
(* decision) is one record carrying both parts.  A log without spans   *)
(* keeps only text records, in a ring of [capacity] that grows and     *)
(* then wraps; a log with spans never drops, and its text view shows   *)
(* the newest [capacity] text records.                                 *)
(* ------------------------------------------------------------------ *)

let stride = 9

type kind = Span_begin | Span_end | Instant | Flow_start | Flow_end

let k_begin = 1

let k_end = 2

let k_instant = 3

let k_flow_start = 4

let k_flow_end = 5

let kind_of_code = [| Span_begin; Span_begin; Span_end; Instant; Flow_start; Flow_end |]

type t = {
  mutable text : bool;  (* text view on *)
  spans : bool;  (* span view on *)
  capacity : int;
  mutable words : int array;
  mutable slots : int;  (* records [words] holds *)
  mutable next : int;  (* the slot the next record takes *)
  mutable appended : int;  (* records ever appended *)
  mutable texts : int;  (* text records ever appended *)
  mutable events : int;  (* span records ever appended *)
  mutable flows : int;  (* flow starts; flow ids count from 1 *)
  (* the log's one intern table: topics, categories, names, arguments *)
  ids : (string, int) Hashtbl.t;
  mutable strs : string array;
  mutable n_strs : int;
  open_spans : (int, int list) Hashtbl.t;
      (* track -> begin record numbers of its open spans, innermost
         first; a track leaves the table when its last span closes *)
  scratch : Buffer.t;  (** deferred-rendering scratch; reused per query *)
}

let default_capacity = 65536

let empty_text = ""

(* Logs with neither view never intern, render or open a span, so they
   all share one dummy table, stack table and scratch buffer (sweeps
   create one such log per run). *)
let dummy_ids : (string, int) Hashtbl.t = Hashtbl.create 1

let dummy_spans : (int, int list) Hashtbl.t = Hashtbl.create 1

let dummy_scratch = Buffer.create 1

let make ~text ~spans ~capacity =
  if capacity < 1 then invalid_arg "Trace.create: capacity must be >= 1";
  let on = text || spans in
  {
    text;
    spans;
    capacity;
    words = [||];
    slots = 0;
    next = 0;
    appended = 0;
    texts = 0;
    events = 0;
    flows = 0;
    ids = (if on then Hashtbl.create 64 else dummy_ids);
    strs = [||];
    n_strs = 0;
    open_spans = (if spans then Hashtbl.create 64 else dummy_spans);
    scratch = (if on then Buffer.create 256 else dummy_scratch);
  }

let create ?(enabled = true) ?(capacity = default_capacity) () =
  make ~text:enabled ~spans:false ~capacity

let recorder ?(capacity = default_capacity) () =
  make ~text:false ~spans:true ~capacity

let enabled t = t.text

let spans t = t.spans

let on t = t.text || t.spans

let set_text t text =
  if not t.spans then invalid_arg "Trace.set_text: the log records no spans";
  t.text <- text

let capacity t = t.capacity

let length t = t.texts

let dropped t = t.texts - min t.texts t.capacity

let events t = t.events

(* ------------------------------------------------------------------ *)
(* Interning                                                           *)
(* ------------------------------------------------------------------ *)

(* [Hashtbl.find] instead of [find_opt]: the hit path (every log call
   with a repeated string) must not allocate an option. *)
let intern t s =
  if not (on t) then 0
  else
    match Hashtbl.find t.ids s with
    | i -> i
    | exception Not_found ->
        let i = t.n_strs in
        if i = Array.length t.strs then begin
          let grown = Array.make (max 32 (2 * i)) empty_text in
          Array.blit t.strs 0 grown 0 i;
          t.strs <- grown
        end;
        t.strs.(i) <- s;
        t.n_strs <- i + 1;
        Hashtbl.add t.ids s i;
        i

type topic = int

let topic = intern

let no_topic = 0

let lookup t i = t.strs.(i)

(* ------------------------------------------------------------------ *)
(* Appending                                                           *)
(* ------------------------------------------------------------------ *)

(* Claim the next slot, growing the array while the log may still grow,
   then wrapping the ring.  A ring doubles up to its [capacity]; a log
   with spans has no bound, so it grows by half, which keeps it within
   a third of its records' size. *)
let claim t =
  if t.next = t.slots then
    if t.spans || t.slots < t.capacity then begin
      let n =
        if t.spans then max 64 (t.slots + (t.slots / 2))
        else min t.capacity (max 64 (2 * t.slots))
      in
      let words = Array.make (n * stride) 0 in
      Array.blit t.words 0 words 0 (t.slots * stride);
      t.words <- words;
      t.slots <- n
    end
    else t.next <- 0;
  let slot = t.next in
  t.next <- slot + 1;
  t.appended <- t.appended + 1;
  slot

(* One record; [head] is its kind, topic and category (see above).  The
   part whose view is off is left out, and a record with neither part
   is not appended at all. *)
let[@inline] push t ~at ~head ~track ~ref_ tmpl a0 a1 a2 a3 =
  let tmpl = if t.text then tmpl else no_text in
  let head = if t.spans then head else head land lnot 7 in
  if tmpl >= 0 || head land 7 <> 0 then begin
    let base = claim t * stride in
    let w = t.words in
    w.(base) <- Vtime.to_int at;
    w.(base + 1) <- head;
    w.(base + 2) <- tmpl;
    w.(base + 3) <- a0;
    w.(base + 4) <- a1;
    w.(base + 5) <- a2;
    w.(base + 6) <- a3;
    w.(base + 7) <- track;
    w.(base + 8) <- ref_;
    if tmpl >= 0 then t.texts <- t.texts + 1;
    if head land 7 <> 0 then t.events <- t.events + 1
  end

let[@inline] head ~kind ~topic ~cat = kind lor (topic lsl 3) lor (cat lsl 31)

(* A trace line alone: the hot path of a log without spans. *)
let[@inline] line t ~at ~topic tmpl a0 a1 a2 a3 =
  if t.text then begin
    let base = claim t * stride in
    let w = t.words in
    w.(base) <- Vtime.to_int at;
    w.(base + 1) <- topic lsl 3;
    w.(base + 2) <- tmpl;
    w.(base + 3) <- a0;
    w.(base + 4) <- a1;
    w.(base + 5) <- a2;
    w.(base + 6) <- a3;
    t.texts <- t.texts + 1
  end

(* The typed fast path: a handful of int stores per record.  Callers
   are expected to test {!on} once (a cached flag) and compute the
   arguments inside that guard, so a disabled log costs nothing. *)

let log4 t ~at ~topic tmpl a0 a1 a2 a3 = line t ~at ~topic tmpl a0 a1 a2 a3

let log3 t ~at ~topic tmpl a0 a1 a2 = line t ~at ~topic tmpl a0 a1 a2 0

let log2 t ~at ~topic tmpl a0 a1 = line t ~at ~topic tmpl a0 a1 0 0

let log1 t ~at ~topic tmpl a0 = line t ~at ~topic tmpl a0 0 0 0

let add t ~at ~topic text =
  if t.text then
    line t ~at ~topic:(intern t topic) text_template (intern t text) 0 0 0

(* The disabled branch must consume the format arguments without
   touching any real formatter: ikfprintf never writes, but it still
   needs a formatter argument, and handing it [std_formatter] (as an
   earlier revision did) pins the shared stdout formatter into the
   fast path.  A dedicated null formatter keeps the no-op pure. *)
let null_formatter = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

let addf t ~at ~topic fmt =
  if t.text then Format.kasprintf (fun text -> add t ~at ~topic text) fmt
  else Format.ikfprintf (fun _ -> ()) null_formatter fmt

(* ---- span records ------------------------------------------------------ *)

type 'a writer =
  t ->
  at:Vtime.t ->
  site:int ->
  tid:int ->
  cat:int ->
  name:int ->
  topic:topic ->
  template ->
  int ->
  int ->
  int ->
  int ->
  'a

(* Sites fit in a few bits and tids in well under 32; pack the pair so
   the per-track stacks live in one int-keyed table. *)
let track ~site ~tid = (site lsl 32) lor (tid land 0xFFFFFFFF)

let span_begin t ~at ~site ~tid ~cat ~name ~topic tmpl a0 a1 a2 a3 =
  let track = track ~site ~tid in
  push t ~at ~head:(head ~kind:k_begin ~topic ~cat) ~track ~ref_:name tmpl a0
    a1 a2 a3;
  if t.spans then
    let stack =
      match Hashtbl.find_opt t.open_spans track with Some s -> s | None -> []
    in
    Hashtbl.replace t.open_spans track ((t.appended - 1) :: stack)

let span_end t ~at ~site ~tid =
  if t.spans then
    let track = track ~site ~tid in
    match Hashtbl.find_opt t.open_spans track with
    | None | Some [] -> ()  (* unbalanced end: drop rather than corrupt *)
    | Some (began :: rest) ->
        if rest = [] then Hashtbl.remove t.open_spans track
        else Hashtbl.replace t.open_spans track rest;
        push t ~at ~head:k_end ~track ~ref_:began no_text 0 0 0 0

let open_depth t ~site ~tid =
  match Hashtbl.find_opt t.open_spans (track ~site ~tid) with
  | None -> 0
  | Some stack -> List.length stack

let close_open_spans t ~at =
  if t.spans then
    Hashtbl.fold (fun k _ acc -> k :: acc) t.open_spans []
    |> List.sort Int.compare
    |> List.iter (fun k ->
           let site = k lsr 32 and tid = k land 0xFFFFFFFF in
           while Hashtbl.mem t.open_spans k do
             span_end t ~at ~site ~tid
           done)

let instant t ~at ~site ~tid ~cat ~name ~topic tmpl a0 a1 a2 a3 =
  push t ~at ~head:(head ~kind:k_instant ~topic ~cat) ~track:(track ~site ~tid)
    ~ref_:name tmpl a0 a1 a2 a3

let flow_start t ~at ~site ~tid ~cat ~name ~topic tmpl a0 a1 a2 a3 =
  push t ~at
    ~head:(head ~kind:k_flow_start ~topic ~cat)
    ~track:(track ~site ~tid) ~ref_:name tmpl a0 a1 a2 a3;
  if t.spans then begin
    t.flows <- t.flows + 1;
    t.flows
  end
  else 0

let flow_end t ~at ~site ~tid ~flow ~topic tmpl a0 a1 a2 a3 =
  let kind = if flow > 0 && flow <= t.flows then k_flow_end else 0 in
  push t ~at ~head:(head ~kind ~topic ~cat:0) ~track:(track ~site ~tid)
    ~ref_:flow tmpl a0 a1 a2 a3

(* ------------------------------------------------------------------ *)
(* The text view (lazy rendering)                                      *)
(* ------------------------------------------------------------------ *)

let text_of_slot t slot =
  let base = slot * stride in
  let w = t.words in
  let buf = t.scratch in
  Buffer.clear buf;
  render buf (lookup t) w.(base + 2) w.(base + 3) w.(base + 4) w.(base + 5)
    w.(base + 6);
  Buffer.contents buf

let entry_of_slot t slot =
  let base = slot * stride in
  {
    at = Vtime.of_int t.words.(base);
    topic = t.strs.((t.words.(base + 1) lsr 3) land 0xFFFFFFF);
    text = text_of_slot t slot;
  }

(* Hand [f] the slot of every text record the view shows, oldest first:
   the store holds records [first, appended) — all of them when the log
   keeps spans, the ring's contents otherwise — and the view skips the
   text records beyond the newest [capacity]. *)
let iter_slots t f =
  let first = if t.spans then 0 else t.appended - min t.appended t.capacity in
  let skip = ref (dropped t - first) in
  for i = first to t.appended - 1 do
    let slot = i mod t.slots in
    if t.words.((slot * stride) + 2) >= 0 then
      if !skip > 0 then decr skip else f slot
  done

let iter f t = iter_slots t (fun slot -> f (entry_of_slot t slot))

(* Build oldest-first lists by consing newest-first. *)
let entries t =
  let acc = ref [] in
  iter (fun e -> acc := e :: !acc) t;
  List.rev !acc

let filter ~topic t =
  match Hashtbl.find_opt t.ids topic with
  | None -> []
  | Some id ->
      let acc = ref [] in
      iter_slots t (fun slot ->
          if (t.words.((slot * stride) + 1) lsr 3) land 0xFFFFFFF = id then
            acc := entry_of_slot t slot :: !acc);
      List.rev !acc

(* Index-based substring search: no per-position [String.sub]. *)
let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  if nn = 0 then true
  else if nn > nh then false
  else begin
    let found = ref false in
    let i = ref 0 in
    let last = nh - nn in
    while (not !found) && !i <= last do
      let j = ref 0 in
      while
        !j < nn
        && Char.equal
             (String.unsafe_get haystack (!i + !j))
             (String.unsafe_get needle !j)
      do
        incr j
      done;
      if !j = nn then found := true else incr i
    done;
    !found
  end

exception Found of int

let find_slot t ~pattern =
  match
    iter_slots t (fun slot ->
        if contains_substring (text_of_slot t slot) pattern then
          raise (Found slot))
  with
  | () -> None
  | exception Found slot -> Some slot

let mem t ~pattern = Option.is_some (find_slot t ~pattern)

let pp_entry fmt e =
  Format.fprintf fmt "[%6s] %-8s %s"
    (Format.asprintf "%a" Vtime.pp e.at)
    e.topic e.text

let pp fmt t =
  if dropped t > 0 then
    Format.fprintf fmt "... (%d earlier entries dropped by the ring)@."
      (dropped t);
  iter (fun e -> Format.fprintf fmt "%a@." pp_entry e) t

(* ------------------------------------------------------------------ *)
(* The span view's reader                                              *)
(* ------------------------------------------------------------------ *)

(* The name of record [i]: an interned string, or a template rendered
   from the record's own arguments. *)
let name_of t i =
  let base = i * stride in
  let w = t.words in
  let name = w.(base + 8) in
  if name >= 0 then t.strs.(name)
  else begin
    let buf = t.scratch in
    Buffer.clear buf;
    render buf (lookup t) (-name - 1) w.(base + 3) w.(base + 4) w.(base + 5)
      w.(base + 6);
    Buffer.contents buf
  end

let cat_of t i = t.strs.(t.words.((i * stride) + 1) lsr 31)

(* A span end is named by its begin record and a flow end by its start,
   so [starts] maps flow ids to start records as the walk meets them. *)
let iter_events t f =
  if t.spans then begin
    let w = t.words in
    let starts = Array.make (t.flows + 1) 0 in
    let flows = ref 0 in
    for i = 0 to t.appended - 1 do
      let base = i * stride in
      let code = w.(base + 1) land 7 in
      if code <> 0 then begin
        let r = w.(base + 8) in
        let named, flow =
          if code = k_end then (r, 0)
          else if code = k_flow_start then begin
            incr flows;
            starts.(!flows) <- i;
            (i, !flows)
          end
          else if code = k_flow_end then (starts.(r), r)
          else (i, 0)
        in
        let track = w.(base + 7) in
        f kind_of_code.(code) (Vtime.of_int w.(base)) (track lsr 32)
          (track land 0xFFFFFFFF) (name_of t named) (cat_of t named) flow
      end
    done
  end

let fold_span_ends t ~from f =
  if t.spans then begin
    let w = t.words in
    for i = from to t.appended - 1 do
      let base = i * stride in
      if w.(base + 1) land 7 = k_end then begin
        let b = w.(base + 8) * stride in
        f ~name:w.(b + 8) ~cat:(w.(b + 1) lsr 31) ~dur:(w.(base) - w.(b))
      end
    done
  end;
  t.appended
