(** The cluster's metrics pipeline.

    Three instrument kinds, all bounded-memory and all drained to
    deterministic JSON at the end of a run (or at any instant — reading
    never perturbs the pipeline):

    - {e counters}: monotonic event counts ("committed", "probes", FACT
      1/2 decision tags, ...);
    - {e time series}: event counts bucketed by virtual time — the
      throughput timelines of the cluster example and bench;
    - {e histograms}: latency distributions held as
      {!Commit_checker.Stats.Acc} streaming accumulators, so a
      million-transaction run retains buckets, not samples;
    - {e gauges}: point-in-time samples (queue depths, live sites) —
      {!set_gauge} replaces rather than accumulates.

    Instruments are created on first use; export orders everything by
    name, so the JSON of two identical runs is byte-identical.

    For streaming telemetry, a {!cursor} slices the pipeline into
    windowed delta {!snapshot}s whose sum rebuilds the final state
    exactly (counters and series cells are sums, histograms a merge
    monoid, gauges last-write-wins). *)

type t

val create : ?bucket:Vtime.t -> t_unit:Vtime.t -> unit -> t
(** [bucket] is the time-series bucket width; default [10 * t_unit]
    (the 10T columns of the cluster-life timeline). *)

val t_unit : t -> Vtime.t

val bucket_ticks : t -> Vtime.t

val incr : t -> string -> unit

val add : t -> string -> int -> unit
(** @raise Invalid_argument on a negative increment (counters are
    monotonic). *)

val counter : t -> string -> int
(** 0 for a never-incremented counter. *)

val counters : t -> (string * int) list
(** Name-sorted. *)

val set_gauge : t -> string -> int -> unit
(** Replace a gauge's value (negative values allowed). *)

val gauge : t -> string -> int
(** 0 for a never-set gauge. *)

val gauges : t -> (string * int) list
(** Name-sorted. *)

val mark : t -> at:Vtime.t -> string -> unit
(** Count one event into the series' bucket [at / bucket]. *)

val bucket_of : t -> Vtime.t -> int

val series : t -> string -> (int * int) list
(** [(bucket index, count)] pairs, bucket-sorted; empty buckets are
    omitted. *)

val series_names : t -> string list

val observe : t -> string -> int -> unit
(** Add one sample to a histogram. *)

val histogram : t -> string -> Commit_checker.Stats.t option

val merge_histogram : t -> string -> Commit_checker.Stats.Acc.acc -> unit
(** Fold a pre-accumulated shard into a histogram (the
    merge-vs-batch-equivalent path). *)

val merge_into : t -> t -> unit
(** [merge_into dst src] folds every counter, series bucket and
    histogram of [src] into [dst] — the exact merge monoid: the result
    equals recording every event into one pipeline, in any grouping.
    Gauges are summed (sweep partials are disjoint runs, so the merged
    value is the total of their final samples).  [src] is not modified.
    @raise Invalid_argument if the bucket widths differ. *)

(** {2 Windowed delta snapshots} *)

type cursor
(** Emission state for one snapshot stream: counter values at the last
    cut, the first series bucket not yet closed, and the per-window
    histogram accumulators' drain point. *)

type snapshot = {
  snap_seq : int;
  snap_since : Vtime.t;  (** exclusive window start: the previous cut *)
  snap_upto : Vtime.t;  (** inclusive window end *)
  snap_final : bool;
  snap_counters : (string * int) list;  (** deltas since the last cut *)
  snap_gauges : (string * int) list;  (** sampled at the cut *)
  snap_series : (string * (int * int) list) list;
      (** series buckets closed by this cut *)
  snap_hists : (string * Commit_checker.Stats.Acc.acc) list;
      (** histogram samples of this window only *)
}

val create_cursor : t -> cursor
(** Switches the pipeline to windowed mode (per-window histogram
    accumulators are maintained from here on).
    @raise Invalid_argument if anything was already recorded — windows
    must cover the whole run. *)

val snapshot : t -> cursor -> at:Vtime.t -> final:bool -> snapshot
(** Cut the window ending at [at] (calls must use non-decreasing
    times).  A counter appears the first time it exists and whenever it
    moved, so even a zero-valued counter reaches a merged rebuild; a
    series bucket is emitted once closed (strictly before [at]'s
    bucket), or unconditionally on the [final] cut; window histograms
    drain.  All lists name-sorted: identical runs yield byte-identical
    streams. *)

val merge_snapshot : t -> snapshot -> unit
(** Fold one window back in.  Replaying a run's snapshots in stream
    order onto a fresh pipeline reproduces the run's final metrics
    exactly. *)

val snapshot_to_json : ?run:string -> t -> snapshot -> Commit_checker.Export.json
(** One flat JSON record (the JSONL line of [--metrics]): [seq],
    [t_unit], [bucket_ticks], [since]/[upto]/[final], then [counters],
    [gauges], [series] and [histograms] objects.  [run] prefixes the
    record with a run label (sweep streams). *)

val to_json : t -> Commit_checker.Export.json
(** [{"counters": {...}, "gauges": {...}, "series": {...},
    "histograms": {...}}], every object name-sorted, series as
    [[bucket, count]] pairs. *)
