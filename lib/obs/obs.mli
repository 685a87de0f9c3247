(** Causal span tracing over the virtual-time simulation: the span view
    of the event log ({!Trace}).

    A recorder is a log with its span view on.  Its span, instant and
    flow records live in the log's one store next to the trace lines, so
    a moment that is both (a send, a decision) is one record.  The view
    has two readings:

    - {e spans}: begin/end pairs on a {e track} keyed by
      (site, transaction id).  Tracks nest (a protocol-state span inside
      the root transaction span, a probe round inside a state), and the
      per-track stack discipline guarantees the nesting is well formed —
      an [span_end] always closes the innermost open span.
    - {e causality}: send/recv flow edges between tracks, recorded by
      the network layer for every delivery {e and} every optimistic
      returned-to-sender bounce, so cross-site message causality is
      explicit rather than inferred from timestamps.

    Everything is deterministic: events are appended in engine order,
    flow ids are a plain counter, and both exporters emit byte-identical
    output for identical runs.

    Allocation policy (the discipline of the engine core): every record
    function first checks the span flag and is a true no-op on a
    disabled recorder — no closure, no string, no event record.  Call
    sites that must {e build} an argument guard on the log's cached
    on-flag themselves.  [disabled] is the shared inert recorder
    instrumented layers default to. *)

type kind = Trace.kind =
  | Span_begin
  | Span_end
  | Instant
  | Flow_start
  | Flow_end

type event = {
  at : Vtime.t;
  kind : kind;
  site : int;  (** 0 = the runtime/coordinator track *)
  tid : int;  (** transaction id; 0 = not transaction-scoped *)
  name : string;
  cat : string;
  flow : int;  (** flow id for [Flow_start]/[Flow_end], else 0 *)
}

type t = Trace.t

val create : unit -> t
(** A fresh, enabled recorder: a log with its span view on and its
    text view off; it never drops a record. *)

val disabled : t
(** The shared inert recorder: every record call is a no-op that
    allocates nothing, and {!flow_start} returns [0]. *)

val enabled : t -> bool

val log : t -> text:bool -> Trace.t
(** The log a harness records a run into: an enabled recorder itself,
    its text view set to [text], so the run's trace and its spans are
    one log; otherwise a fresh log without spans whose text view is on
    exactly when [text] is.  The harness hands it to its engine. *)

val num_events : t -> int

val span_begin :
  t -> at:Vtime.t -> site:int -> tid:int -> ?cat:string -> string -> unit
(** Opens a span on the (site, tid) track.  [cat] defaults to
    ["phase"]. *)

val span_end : t -> at:Vtime.t -> site:int -> tid:int -> unit
(** Closes the innermost open span on the track.  A spurious end (no
    span open) is dropped. *)

val open_depth : t -> site:int -> tid:int -> int
(** Number of spans currently open on the track (0 when disabled). *)

val close_open_spans : t -> at:Vtime.t -> unit
(** Closes every still-open span at [at], tracks in sorted order —
    called by the harnesses after the engine stops so blocked sites
    still export well-formed timelines. *)

val instant : t -> at:Vtime.t -> site:int -> tid:int -> ?cat:string -> string -> unit
(** A zero-duration mark ([cat] defaults to ["mark"]). *)

val flow_start :
  t -> at:Vtime.t -> site:int -> tid:int -> ?cat:string -> string -> int
(** Opens a causality edge at its source and returns its flow id
    ([0] when disabled; [cat] defaults to ["net"]). *)

val flow_end : t -> at:Vtime.t -> site:int -> tid:int -> int -> unit
(** Closes the edge at its destination.  No-op for flow id [0]. *)

val iter : t -> (event -> unit) -> unit
(** All recorded events, in record (= engine) order. *)

val fold_closed_spans :
  t -> from:int -> (name:int -> cat:int -> dur:int -> unit) -> int
(** Hands every span end recorded since cursor [from] (start at [0]) to
    the callback as interned ids plus the span's duration in ticks (an
    end record points at its begin record, so no pairing state is
    needed), and returns the new cursor.  No strings are rendered —
    resolve ids with {!name_string}, memoised per id.  The incremental
    feed behind the span->histogram bridge. *)

val name_string : t -> int -> string
(** The interned string behind a [name]/[cat] id from
    {!fold_closed_spans}. *)

val to_trace_event_json : t -> string
(** Chrome [trace_event] JSON, loadable in Perfetto /
    [chrome://tracing]: pid = site, tid = transaction id, virtual ticks
    as microseconds; spans as ["B"]/["E"], instants as ["i"], flow
    edges as ["s"]/["f"], plus process/thread-name metadata. *)

val to_causality_json : t -> string
(** The causality DAG: closed spans and completed send->recv edges,
    name-sorted, as a stable diffable JSON artifact. *)
