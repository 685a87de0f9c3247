(* Every metric the benchmark reports.  End-to-end metrics carry the
   regression bound that BENCHMARK.json fixes (the share of the base
   median by which a change may worsen them); per-layer metrics carry
   the module they measure and the end-to-end metric and workload a
   change to that module should move.  BENCHMARK.json lists the same
   names, units and directions. *)

type better = Lower | Higher

type t = {
  name : string;
  unit : string;
  better : better;
  bound : float option;
  layer : string;
  moves : string;
}

let e2e name unit better bound =
  { name; unit; better; bound = Some bound; layer = ""; moves = "" }

let layer layer name unit moves =
  { name; unit; better = Lower; bound = None; layer; moves }

let end_to_end =
  [
    e2e "setup_s" "s" Lower 0.25;
    e2e "txns_per_s" "txn/s" Higher 0.10;
    e2e "rep_s_p50" "s" Lower 0.10;
    e2e "rep_s_p90" "s" Lower 0.15;
    e2e "render_s" "s" Lower 0.15;
    e2e "peak_heap_mb" "MB" Lower 0.15;
  ]

let steady = "txns_per_s@cluster-steady"

let sweep = "txns_per_s@checker-sweep"

let soak_tail = "rep_s_p90@soak-crash"

let observed = "txns_per_s@cluster-observed; nothing on cluster-steady"

let per_layer =
  [
    layer "Engine" "engine.events_per_op" "event/op" (steady ^ ", " ^ sweep);
    layer "Engine" "engine.ns_per_event" "ns" (steady ^ ", " ^ sweep);
    layer "Engine" "engine.words_per_event" "word" (steady ^ ", " ^ sweep);
    layer "Engine" "engine.prof_share" "fraction" steady;
    layer "Network" "network.msgs_per_op" "msg/op" steady;
    layer "Network" "network.bounce_share" "fraction" soak_tail;
    layer "Network" "network.ns_per_msg" "ns" steady;
    layer "Network" "network.words_per_msg" "word" steady;
    layer "Network" "network.prof_share" "fraction" steady;
    layer "Runner" "protocol.run_us_p50" "us" sweep;
    layer "Runner" "protocol.run_us_p99" "us" sweep;
    layer "Runner" "protocol.words_per_run" "word" sweep;
    layer "Ctx/Termination" "protocol.ns_per_txn" "ns" steady;
    layer "Ctx/Termination" "protocol.prof_share" "fraction" steady;
    layer "Termination" "termination.invocations_per_kop" "1/kop" soak_tail;
    layer "Termination" "termination.probes_per_kop" "1/kop" soak_tail;
    layer "Verdict" "verdict.ns_per_run" "ns" sweep;
    layer "Sweep" "sweep.merge_ns_per_run" "ns" sweep;
    layer "Sweep" "sweep.residual_share" "fraction" sweep;
    layer "Wal" "storage.wal_records_per_txn" "record/txn" steady;
    layer "Durable_site" "storage.ns_per_txn" "ns" steady;
    layer "Durable_site" "storage.words_per_txn" "word" steady;
    layer "Durable_site" "storage.recover_ms" "ms"
      "rep_s_p90@soak-crash, txns_per_s@soak-crash; nothing on cluster-steady";
    layer "Durable_site" "recovery.in_doubt_per_epoch" "txn" soak_tail;
    layer "Durable_site" "recovery.redone_per_epoch" "txn" soak_tail;
    layer "Lock_manager" "locks.ns_per_txn" "ns"
      "nothing today: the runtime never calls it";
    layer "Scheduler" "scheduler.ns_per_txn" "ns" steady;
    layer "Auditor" "auditor.ns_per_txn" "ns" steady;
    layer "Auditor" "auditor.prof_share" "fraction" steady;
    layer "Metrics" "metrics.ns_per_txn" "ns" steady;
    layer "Trace" "trace.ns_per_record" "ns" observed;
    layer "Obs" "obs.ns_per_span" "ns" observed;
    layer "Obs" "obs.words_per_span" "word" observed;
    layer "Span_bridge" "span_bridge.ns_per_span" "ns" observed;
    layer "Metrics" "metrics.snapshot_us" "us" observed;
    layer "Runtime" "runtime.residual_share" "fraction"
      "rep_s_p50@cluster-steady";
    layer "Runtime" "report.to_json_ms" "ms" "rep_s_p50@cluster-steady";
    layer "Runtime" "report.timeline_ms" "ms" "render_s@cluster-steady";
    layer "GC" "gc.minor_words_per_op" "word/op"
      "txns_per_s and peak_heap_mb on every cluster workload";
    layer "GC" "gc.major_collections_per_kop" "1/kop"
      "txns_per_s and peak_heap_mb on every cluster workload";
    layer "Prof" "prof.ns_per_enter_leave" "ns" "every *.prof_share";
    layer "Trace/Obs" "trace.overhead" "fraction"
      "txns_per_s on every cluster workload";
  ]

let find name =
  List.find_opt (fun m -> String.equal m.name name) (end_to_end @ per_layer)
