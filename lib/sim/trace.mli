(** The event log: structured execution traces and causal spans in one
    store.

    Every layer of the stack (network, protocol actors, database)
    appends timestamped records to the log its engine carries.  A
    record has a {e text} part — a trace line under a topic, the view
    that makes the paper's counterexamples inspectable — and a {e span}
    part — a span begin or end, an instant or a message-flow endpoint on
    a (site, transaction) track, the view {!Commit_obs.Obs} exports and
    the span->histogram bridge drains.  A moment that is both (a send, a
    bounce, a decision) is one record with both parts.

    Storage is binary: each record is a handful of packed ints (virtual
    time, interned topic and category, template id, four template
    arguments, track, name).  No string is built when a record is
    appended; rendering happens lazily, at query/export time, through a
    global registry of template renderers plus the log's one
    string-interning table.  The hot path costs a few int stores.

    Each view can be on or off.  A log without spans is a ring: the
    newest {!capacity} records are retained, older ones are overwritten.
    A log with spans never drops a record; its text view shows the
    newest {!capacity} text records.  Disabled logs are pure no-ops on
    every write path. *)

type entry = {
  at : Vtime.t;
  topic : string;  (** e.g. ["net"], ["site2"], ["master"], ["db"]. *)
  text : string;
}

type t

val create : ?enabled:bool -> ?capacity:int -> unit -> t
(** [create ()] is an empty log with its text view on and no spans.
    With [~enabled:false], every write is a no-op — sweeps use disabled
    logs to stay allocation-light.  [capacity] bounds retention (default
    65536 entries).
    @raise Invalid_argument if [capacity < 1]. *)

val recorder : ?capacity:int -> unit -> t
(** A fresh log with its span view on and its text view off; this is
    {!Commit_obs.Obs.create}.  It never drops a record; [capacity]
    bounds only what its text view shows (default 65536 entries). *)

val enabled : t -> bool
(** The text view is on. *)

val spans : t -> bool
(** The span view is on. *)

val on : t -> bool
(** Either view is on: the one flag an instrumented layer caches and
    tests before computing any record argument. *)

val set_text : t -> bool -> unit
(** Turns the text view on or off for records appended from now on —
    how a harness records a run into a caller's span recorder.
    @raise Invalid_argument on a log without spans. *)

val capacity : t -> int

val dropped : t -> int
(** Text entries the view no longer shows; [0] until the log holds more
    than {!capacity} of them. *)

(** {1 Templates and interning} *)

type template = private int
(** A registered record format: renders a record's arguments into text
    at query time. *)

type renderer =
  Buffer.t -> (int -> string) -> int -> int -> int -> int -> int -> unit
(** [render buf lookup a0 a1 a2 a3 a4] appends the rendered text to
    [buf].  [lookup] resolves ids from the owning log's intern table
    (for arguments that are interned strings).  A record stores four
    arguments, so [a4] is always [0].  A renderer must be pure and must
    reproduce, byte for byte, the format it replaced. *)

val register_template : renderer -> template
(** Register a record format.  The registry is global and append-only;
    call it only from module initialisation (before any worker domain
    spawns) — never per log or per run. *)

val render_arg : Buffer.t -> (int -> string) -> int -> int -> unit
(** [render_arg buf lookup tmpl a0] renders template [tmpl] (stored as
    a record argument) with [a0] as its only argument: how a network
    line prints its payload. *)

val text_template : template
(** The built-in template whose one argument is an interned string. *)

val no_text : template
(** Marks a span record with no trace line. *)

val template_name : template -> int
(** A span name rendered by the template from the record's own
    arguments, for a record whose line already carries what the name
    shows (a message flow named by its payload). *)

type topic = private int
(** An interned topic id, valid only for the log that produced it; as an
    int it is the id {!intern} gives the same string. *)

val topic : t -> string -> topic
(** Intern a topic.  Cache the result at component-creation time; on a
    disabled log this returns a dummy. *)

val no_topic : topic
(** The topic of a record with no trace line. *)

val intern : t -> string -> int
(** Intern an arbitrary string (state names, reasons, span names and
    categories) for use as a template argument or span field; stable
    for the lifetime of the log.  Returns a dummy on a disabled log. *)

val lookup : t -> int -> string
(** The string behind an interned id. *)

(** {1 Writing trace lines} *)

val add : t -> at:Vtime.t -> topic:string -> string -> unit
(** Eager append of already-rendered [text] (interned; for cold paths
    and tests). *)

val addf :
  t ->
  at:Vtime.t ->
  topic:string ->
  ('a, Format.formatter, unit, unit) format4 ->
  'a
(** Formatted {!add}.  The format arguments are not evaluated when the
    text view is off. *)

val log1 : t -> at:Vtime.t -> topic:topic -> template -> int -> unit

val log2 : t -> at:Vtime.t -> topic:topic -> template -> int -> int -> unit

val log3 :
  t -> at:Vtime.t -> topic:topic -> template -> int -> int -> int -> unit

val log4 :
  t -> at:Vtime.t -> topic:topic -> template -> int -> int -> int -> int -> unit
(** Typed binary append of a trace line: a few int stores, no
    rendering.  Callers should test {!on} once (a cached flag) and
    compute arguments inside that guard so a disabled log costs
    nothing. *)

(** {1 Writing span records}

    Each writer appends one record whose span part sits on the
    (site, tid) track and whose text part is the line
    [topic]/[template]/four arguments — or no line, with {!no_topic}
    and {!no_text}.  Category and name are interned ids.  The part
    whose view is off is left out. *)

type kind = Span_begin | Span_end | Instant | Flow_start | Flow_end

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

val span_begin : unit writer
(** Opens a span on the track. *)

val span_end : t -> at:Vtime.t -> site:int -> tid:int -> unit
(** Closes the innermost open span on the track; a spurious end is
    dropped. *)

val open_depth : t -> site:int -> tid:int -> int

val close_open_spans : t -> at:Vtime.t -> unit
(** Closes every still-open span at [at], tracks in sorted order. *)

val instant : unit writer

val flow_start : int writer
(** Opens a causality edge and returns its flow id (a counter from 1),
    or [0] without spans. *)

val flow_end :
  t -> at:Vtime.t -> site:int -> tid:int -> flow:int -> topic:topic ->
  template -> int -> int -> int -> int -> unit
(** Closes edge [flow] at its destination; its name and category are its
    start's.  The span part is left out for flow id [0]. *)

(** {1 Reading the text view (lazy rendering)} *)

val entries : t -> entry list
(** The entries the text view shows, in append (chronological) order. *)

val iter : (entry -> unit) -> t -> unit
(** Oldest shown entry first.  Renders each entry's text on the fly. *)

val length : t -> int
(** Total text entries ever appended (shown + dropped). *)

val filter : topic:string -> t -> entry list
(** Entries whose topic equals [topic]; non-matching records are
    skipped without rendering. *)

val mem : t -> pattern:string -> bool

val pp : Format.formatter -> t -> unit
(** One line per entry: [\[  123\] topic: text]. *)

val pp_entry : Format.formatter -> entry -> unit

(** {1 Reading the span view} *)

val events : t -> int
(** Span records appended. *)

val iter_events :
  t ->
  (kind -> Vtime.t -> int -> int -> string -> string -> int -> unit) ->
  unit
(** [iter_events t f] calls [f kind at site tid name category flow] for
    every span record, in record (= engine) order; [flow] is the flow
    id of a flow endpoint, else [0]. *)

val fold_span_ends :
  t -> from:int -> (name:int -> cat:int -> dur:int -> unit) -> int
(** Hands every span end among the records from cursor [from] on to the
    callback as interned ids plus its duration in ticks, and returns
    the cursor past the last record.  Start from cursor [0]. *)
