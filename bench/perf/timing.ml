(* Clocks, quantiles and allocation counters for the benchmark.

   Wall time comes from a monotonic nanosecond clock (bechamel's
   clock_gettime stub): the per-run legs time single checker runs of a
   few microseconds, which gettimeofday's microsecond ticks cannot
   resolve. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Read at module initialisation, which is as close to process entry
   as the program gets; the first set-up is timed from here. *)
let process_start = now_ns ()

let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, seconds_since t0)

(* Machine speed.  On a host whose cores are shared with other work,
   speed wanders by tens of percent over spells from seconds to
   minutes, and a spell slows every timing in it alike, whole runs
   included.  A fixed reference loop timed just before each measured
   run reads the speed of the moment, and end-to-end times are reported
   scaled to a machine on which the loop takes [reference_nominal_s]
   (an idle 2-core Intel Xeon VM): a run's time x nominal / the loop's
   time.  The loop is
   integer work over a 32 KB table of its own: it allocates nothing, so
   neither the program under test nor the heap that program leaves
   behind can move it, and its table stays in cache.  Raw times are
   reported beside the scaled ones. *)
let reference_nominal_s = 0.0025

let reference_table = Array.init 4096 (fun i -> i * 2654435761 land 4095)

let reference_loop () =
  let j = ref 0 and acc = ref 0 in
  for k = 1 to 1_000_000 do
    j := reference_table.((!j + k) land 4095);
    acc := (!acc * 31) + (k lxor !j)
  done;
  ignore (Sys.opaque_identity !acc)

(* The factor that scales a time measured now. *)
let speed () =
  let t0 = now_ns () in
  reference_loop ();
  reference_nominal_s /. seconds_since t0

(* Python's [statistics.quantiles] default ("exclusive") method, so the
   quartiles printed here are the ones a reader computes from the JSON
   with the standard library. *)
let quantile p values =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n = 1 then a.(0)
  else
    let m = p *. float_of_int (n + 1) in
    let j = Stdlib.max 1 (Stdlib.min (n - 1) (truncate m)) in
    let frac = m -. float_of_int j in
    a.(j - 1) +. (frac *. (a.(j) -. a.(j - 1)))

let median values = quantile 0.5 values

type spread = { q1 : float; q2 : float; q3 : float }

let quartiles values =
  { q1 = quantile 0.25 values; q2 = median values; q3 = quantile 0.75 values }

(* One isolated-leg sample: [run] does the measured work on the state
   [setup] built, untimed, and returns how many operations it did. *)
type cost = { ns_per_op : float; words_per_op : float }

let sample ~setup ~run =
  let state = setup () in
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  let ops = run state in
  let ns = float_of_int (now_ns () - t0) in
  let words = Gc.minor_words () -. w0 in
  let ops = float_of_int (Stdlib.max 1 ops) in
  { ns_per_op = ns /. ops; words_per_op = words /. ops }

(* Median of [repeats] samples, each component separately. *)
let leg ?(repeats = 5) ~setup run =
  let samples = List.init repeats (fun _ -> sample ~setup ~run) in
  {
    ns_per_op = median (List.map (fun c -> c.ns_per_op) samples);
    words_per_op = median (List.map (fun c -> c.words_per_op) samples);
  }

(* Seconds per call of [f], as the median of [samples] batches that each
   repeat [f] for at least 20 ms, so that a microsecond-scale render is
   timed as accurately as a slow one. *)
let per_call ?(samples = 5) f =
  let batch () =
    let t0 = now_ns () in
    let calls = ref 0 in
    while !calls = 0 || seconds_since t0 < 0.02 do
      f ();
      incr calls
    done;
    seconds_since t0 /. float_of_int !calls
  in
  median (List.init samples (fun _ -> batch ()))
