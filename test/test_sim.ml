(* Unit and property tests for the simulation kernel (lib/sim). *)

let check = Alcotest.check

let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Vtime                                                               *)
(* ------------------------------------------------------------------ *)

let test_vtime_add_saturates () =
  check Alcotest.int "inf + 1 = inf" Vtime.infinity
    (Vtime.add Vtime.infinity (Vtime.of_int 1));
  check Alcotest.int "1 + inf = inf" Vtime.infinity
    (Vtime.add (Vtime.of_int 1) Vtime.infinity);
  check Alcotest.int "overflow saturates" Vtime.infinity
    (Vtime.add (Vtime.infinity - 1) (Vtime.infinity - 1))

let test_vtime_sub_clips () =
  check Alcotest.int "3 - 5 = 0" 0 (Vtime.sub (Vtime.of_int 3) (Vtime.of_int 5));
  check Alcotest.int "5 - 3 = 2" 2 (Vtime.sub (Vtime.of_int 5) (Vtime.of_int 3));
  check Alcotest.int "inf - x = inf" Vtime.infinity
    (Vtime.sub Vtime.infinity (Vtime.of_int 7))

let test_vtime_of_int_negative () =
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Vtime.of_int: negative") (fun () ->
      ignore (Vtime.of_int (-1)))

let test_vtime_pp () =
  check Alcotest.string "plain" "42" (Format.asprintf "%a" Vtime.pp (Vtime.of_int 42));
  check Alcotest.string "inf" "inf" (Format.asprintf "%a" Vtime.pp Vtime.infinity);
  check Alcotest.string "in T" "2.50T"
    (Format.asprintf "%a" (Vtime.pp_in_t ~unit_t:(Vtime.of_int 1000)) (Vtime.of_int 2500))

let vtime_add_commutative =
  QCheck.Test.make ~name:"Vtime.add commutative"
    QCheck.(pair (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (a, b) ->
      Vtime.add (Vtime.of_int a) (Vtime.of_int b)
      = Vtime.add (Vtime.of_int b) (Vtime.of_int a))

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create 7L and b = Rng.create 7L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_split_independent () =
  let a = Rng.create 7L in
  let b = Rng.split a in
  let xs = List.init 20 (fun _ -> Rng.next_int64 a) in
  let ys = List.init 20 (fun _ -> Rng.next_int64 b) in
  check Alcotest.bool "streams differ" true (xs <> ys)

let rng_int_in_bounds =
  QCheck.Test.make ~name:"Rng.int stays in bounds"
    QCheck.(pair (int_bound 1000) small_nat)
    (fun (bound, seed) ->
      let bound = bound + 1 in
      let rng = Rng.create (Int64.of_int seed) in
      let v = Rng.int rng ~bound in
      0 <= v && v < bound)

let rng_int_in_range =
  QCheck.Test.make ~name:"Rng.int_in stays in the inclusive range"
    QCheck.(triple (int_range 0 100) (int_range 0 100) small_nat)
    (fun (a, b, seed) ->
      let lo = Stdlib.min a b and hi = Stdlib.max a b in
      let rng = Rng.create (Int64.of_int seed) in
      let v = Rng.int_in rng ~lo ~hi in
      lo <= v && v <= hi)

let rng_float_unit_interval =
  QCheck.Test.make ~name:"Rng.float in [0,1)" QCheck.small_nat (fun seed ->
      let rng = Rng.create (Int64.of_int seed) in
      let f = Rng.float rng in
      0.0 <= f && f < 1.0)

let rng_shuffle_permutes =
  QCheck.Test.make ~name:"Rng.shuffle permutes"
    QCheck.(pair (list int) small_nat)
    (fun (xs, seed) ->
      let arr = Array.of_list xs in
      Rng.shuffle (Rng.create (Int64.of_int seed)) arr;
      List.sort Int.compare (Array.to_list arr) = List.sort Int.compare xs)

let test_rng_pick () =
  let rng = Rng.create 3L in
  let xs = [ 1; 2; 3; 4 ] in
  for _ = 1 to 50 do
    check Alcotest.bool "member" true (List.mem (Rng.pick rng xs) xs)
  done;
  Alcotest.check_raises "empty pick" (Invalid_argument "Rng.pick: empty list")
    (fun () -> ignore (Rng.pick rng []))

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)
(* ------------------------------------------------------------------ *)

let test_trace_order_and_filter () =
  let t = Trace.create () in
  Trace.add t ~at:(Vtime.of_int 1) ~topic:"a" "one";
  Trace.add t ~at:(Vtime.of_int 2) ~topic:"b" "two";
  Trace.addf t ~at:(Vtime.of_int 3) ~topic:"a" "three %d" 3;
  check Alcotest.int "length" 3 (Trace.length t);
  check
    Alcotest.(list string)
    "append order"
    [ "one"; "two"; "three 3" ]
    (List.map (fun (e : Trace.entry) -> e.text) (Trace.entries t));
  check Alcotest.int "filter a" 2 (List.length (Trace.filter ~topic:"a" t));
  check Alcotest.bool "mem" true (Trace.mem t ~pattern:"three");
  check Alcotest.bool "not mem" false (Trace.mem t ~pattern:"four")

let test_trace_disabled () =
  let t = Trace.create ~enabled:false () in
  Trace.add t ~at:Vtime.zero ~topic:"x" "ignored";
  Trace.addf t ~at:Vtime.zero ~topic:"x" "ignored %d" 1;
  check Alcotest.int "no entries" 0 (Trace.length t)

let test_trace_addf_disabled_no_side_effects () =
  (* The disabled branch must not render its arguments at all: a %t
     printer would reach the sink formatter if ikfprintf were wired to
     std_formatter. *)
  let t = Trace.create ~enabled:false () in
  let rendered = ref false in
  Trace.addf t ~at:Vtime.zero ~topic:"x" "%t"
    (fun _ -> rendered := true);
  check Alcotest.bool "printer never called" false !rendered;
  check Alcotest.int "no entries" 0 (Trace.length t)

let test_trace_ring_wrap () =
  let t = Trace.create ~capacity:4 () in
  for i = 1 to 10 do
    Trace.add t ~at:(Vtime.of_int i) ~topic:"x" (string_of_int i)
  done;
  check Alcotest.int "length counts every append" 10 (Trace.length t);
  check Alcotest.int "capacity" 4 (Trace.capacity t);
  check Alcotest.int "dropped" 6 (Trace.dropped t);
  check
    Alcotest.(list string)
    "entries keep the newest, oldest-first"
    [ "7"; "8"; "9"; "10" ]
    (List.map (fun (e : Trace.entry) -> e.text) (Trace.entries t));
  let seen = ref [] in
  Trace.iter (fun e -> seen := e.Trace.text :: !seen) t;
  check
    Alcotest.(list string)
    "iter matches entries" [ "7"; "8"; "9"; "10" ] (List.rev !seen);
  check Alcotest.bool "old entry evicted" false (Trace.mem t ~pattern:"3");
  check Alcotest.bool "new entry retained" true (Trace.mem t ~pattern:"9")

let test_trace_no_wrap_below_capacity () =
  let t = Trace.create ~capacity:8 () in
  for i = 1 to 5 do
    Trace.add t ~at:(Vtime.of_int i) ~topic:"x" (string_of_int i)
  done;
  check Alcotest.int "nothing dropped" 0 (Trace.dropped t);
  check
    Alcotest.(list string)
    "all five, in order"
    [ "1"; "2"; "3"; "4"; "5" ]
    (List.map (fun (e : Trace.entry) -> e.text) (Trace.entries t))

let test_trace_substring_search () =
  let t = Trace.create () in
  Trace.add t ~at:Vtime.zero ~topic:"x" "abcabd";
  (* Empty needle: every entry matches. *)
  check Alcotest.bool "empty pattern" true (Trace.mem t ~pattern:"");
  (* Overlapping prefixes: the match starts mid-way through a failed
     candidate, so a scanner that skips past the mismatch would miss it. *)
  check Alcotest.bool "overlap" true (Trace.mem t ~pattern:"abd");
  check Alcotest.bool "repeated prefix" true (Trace.mem t ~pattern:"cab");
  check Alcotest.bool "no match" false (Trace.mem t ~pattern:"abe");
  check Alcotest.bool "needle longer than hay" false
    (Trace.mem t ~pattern:"abcabdx");
  let t2 = Trace.create () in
  Trace.add t2 ~at:Vtime.zero ~topic:"x" "aaab";
  check Alcotest.bool "self-overlapping needle" true
    (Trace.mem t2 ~pattern:"aab")

let test_trace_empty_mem () =
  let t = Trace.create () in
  check Alcotest.bool "empty trace, empty pattern" false
    (Trace.mem t ~pattern:"")

(* ------------------------------------------------------------------ *)
(* Label                                                               *)
(* ------------------------------------------------------------------ *)

let test_label_force () =
  check Alcotest.string "static" "hello" (Label.force (Label.Static "hello"));
  let calls = ref 0 in
  let lazy_label =
    Label.Dynamic
      (fun () ->
        incr calls;
        "rendered")
  in
  check Alcotest.int "not forced at construction" 0 !calls;
  check Alcotest.string "dynamic" "rendered" (Label.force lazy_label);
  check Alcotest.int "forced once per call" 1 !calls

let test_label_dynamic_unforced_when_trace_off () =
  (* Scheduling through a disabled trace must never render the label. *)
  let trace = Trace.create ~enabled:false () in
  let e = Engine.create ~trace () in
  let forced = ref false in
  ignore
    (Engine.schedule e ~delay:(Vtime.of_int 1)
       ~label:
         (Label.Dynamic
            (fun () ->
              forced := true;
              "expensive"))
       ignore);
  Engine.run e;
  check Alcotest.bool "label never rendered" false !forced;
  check Alcotest.int "event still ran" 1 (Engine.events_run e)

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let test_engine_time_order () =
  let e = Engine.create () in
  let out = ref [] in
  let note tag () = out := tag :: !out in
  ignore (Engine.schedule e ~delay:(Vtime.of_int 30) ~label:(Label.Static "c") (note "c"));
  ignore (Engine.schedule e ~delay:(Vtime.of_int 10) ~label:(Label.Static "a") (note "a"));
  ignore (Engine.schedule e ~delay:(Vtime.of_int 20) ~label:(Label.Static "b") (note "b"));
  Engine.run e;
  check Alcotest.(list string) "time order" [ "a"; "b"; "c" ] (List.rev !out);
  check Alcotest.int "clock at last event" 30 (Engine.now e)

let test_engine_rank_order () =
  let e = Engine.create () in
  let out = ref [] in
  let note tag () = out := tag :: !out in
  ignore
    (Engine.schedule e ~rank:Engine.Background ~delay:(Vtime.of_int 10)
       ~label:(Label.Static "bg") (note "background"));
  ignore
    (Engine.schedule e ~rank:Engine.Timer ~delay:(Vtime.of_int 10) ~label:(Label.Static "t")
       (note "timer"));
  ignore
    (Engine.schedule e ~rank:Engine.Delivery ~delay:(Vtime.of_int 10)
       ~label:(Label.Static "d") (note "delivery"));
  Engine.run e;
  check
    Alcotest.(list string)
    "delivery < timer < background"
    [ "delivery"; "timer"; "background" ]
    (List.rev !out)

let test_engine_fifo_within_rank () =
  let e = Engine.create () in
  let out = ref [] in
  for i = 1 to 5 do
    ignore
      (Engine.schedule e ~delay:(Vtime.of_int 10) ~label:(Label.Static "x") (fun () ->
           out := i :: !out))
  done;
  Engine.run e;
  check Alcotest.(list int) "insertion order" [ 1; 2; 3; 4; 5 ] (List.rev !out)

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let handle =
    Engine.schedule e ~delay:(Vtime.of_int 5) ~label:(Label.Static "x") (fun () -> fired := true)
  in
  Engine.cancel handle;
  check Alcotest.bool "cancelled" true (Engine.cancelled handle);
  Engine.run e;
  check Alcotest.bool "did not fire" false !fired

let test_engine_schedule_in_past () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~delay:(Vtime.of_int 10) ~label:(Label.Static "x") (fun () -> ()));
  Engine.run e;
  check Alcotest.int "now" 10 (Engine.now e);
  let raised =
    try
      ignore (Engine.schedule_at e ~at:(Vtime.of_int 5) ~label:(Label.Static "y") (fun () -> ()));
      false
    with Invalid_argument _ -> true
  in
  check Alcotest.bool "past rejected" true raised

let test_engine_run_until () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    ignore (Engine.schedule e ~delay:(Vtime.of_int 10) ~label:(Label.Static "tick") tick)
  in
  ignore (Engine.schedule e ~delay:(Vtime.of_int 10) ~label:(Label.Static "tick") tick);
  Engine.run ~until:(Vtime.of_int 55) e;
  check Alcotest.int "five ticks" 5 !count;
  (* The sixth tick is still queued, not lost. *)
  check Alcotest.bool "pending remains" true (Engine.pending e > 0);
  Engine.run ~until:(Vtime.of_int 100) e;
  check Alcotest.int "ten ticks" 10 !count

let test_engine_max_events_guard () =
  let e = Engine.create () in
  let rec forever () =
    ignore (Engine.schedule e ~delay:(Vtime.of_int 1) ~label:(Label.Static "loop") forever)
  in
  ignore (Engine.schedule e ~delay:(Vtime.of_int 1) ~label:(Label.Static "loop") forever);
  Engine.run ~max_events:1000 e;
  check Alcotest.int "stopped by guard" 1000 (Engine.events_run e)

let test_engine_nested_scheduling () =
  let e = Engine.create () in
  let times = ref [] in
  ignore
    (Engine.schedule e ~delay:(Vtime.of_int 5) ~label:(Label.Static "outer") (fun () ->
         times := Engine.now e :: !times;
         ignore
           (Engine.schedule e ~delay:(Vtime.of_int 7) ~label:(Label.Static "inner") (fun () ->
                times := Engine.now e :: !times))));
  Engine.run e;
  check Alcotest.(list int) "nested fires at 12" [ 5; 12 ] (List.rev !times)

let test_engine_same_time_nested () =
  (* An event scheduling another event at delay 0 runs it at the same
     timestamp, after the currently-queued same-time events (sequence
     order). *)
  let e = Engine.create () in
  let out = ref [] in
  ignore
    (Engine.schedule e ~delay:(Vtime.of_int 5) ~label:(Label.Static "a") (fun () ->
         out := "a" :: !out;
         ignore
           (Engine.schedule e ~delay:Vtime.zero ~label:(Label.Static "c") (fun () ->
                out := "c" :: !out))));
  ignore
    (Engine.schedule e ~delay:(Vtime.of_int 5) ~label:(Label.Static "b") (fun () ->
         out := "b" :: !out));
  Engine.run e;
  check Alcotest.(list string) "a b c" [ "a"; "b"; "c" ] (List.rev !out);
  check Alcotest.int "still at 5" 5 (Engine.now e)

let test_engine_cancel_from_event () =
  (* One event cancels a later one from inside its callback. *)
  let e = Engine.create () in
  let fired = ref false in
  let victim =
    Engine.schedule e ~delay:(Vtime.of_int 10) ~label:(Label.Static "victim") (fun () ->
        fired := true)
  in
  ignore
    (Engine.schedule e ~delay:(Vtime.of_int 5) ~label:(Label.Static "assassin") (fun () ->
         Engine.cancel victim));
  Engine.run e;
  check Alcotest.bool "victim never fired" false !fired;
  check Alcotest.int "only the assassin ran" 1 (Engine.events_run e)

let test_engine_events_run_counts () =
  let e = Engine.create () in
  for _ = 1 to 7 do
    ignore (Engine.schedule e ~delay:(Vtime.of_int 1) ~label:(Label.Static "x") ignore)
  done;
  check Alcotest.int "pending before" 7 (Engine.pending e);
  Engine.run e;
  check Alcotest.int "ran all" 7 (Engine.events_run e);
  check Alcotest.int "pending after" 0 (Engine.pending e)

let engine_executes_in_time_order =
  QCheck.Test.make ~name:"Engine executes any schedule in time order"
    QCheck.(list (int_bound 1000))
    (fun delays ->
      let e = Engine.create () in
      let seen = ref [] in
      List.iter
        (fun d ->
          ignore
            (Engine.schedule e ~delay:(Vtime.of_int d) ~label:(Label.Static "x") (fun () ->
                 seen := Engine.now e :: !seen)))
        delays;
      Engine.run e;
      let seen = List.rev !seen in
      List.sort Int.compare seen = seen
      && List.length seen = List.length delays)

let engine_pops_in_compare_event_order =
  (* The specialized event heap must execute any schedule in exact
     [(at, rank, seq)] order — the same total order the generic
     [compare_event] gave.  Delays are drawn from a tiny range and ranks
     from all three, so equal-[at] ties are common and the rank and
     sequence tie-breaks both get exercised. *)
  QCheck.Test.make ~count:300
    ~name:"Engine pops in exact (at, rank, seq) order"
    QCheck.(list (pair (int_bound 3) (int_bound 2)))
    (fun spec ->
      let e = Engine.create () in
      let order = ref [] in
      List.iteri
        (fun seq (delay, rank_code) ->
          let rank =
            match rank_code with
            | 0 -> Engine.Delivery
            | 1 -> Engine.Timer
            | _ -> Engine.Background
          in
          ignore
            (Engine.schedule e ~rank ~delay:(Vtime.of_int delay)
               ~label:(Label.Static "x") (fun () -> order := seq :: !order)))
        spec;
      Engine.run e;
      let executed = List.rev !order in
      let keys = Array.of_list spec in
      let expected =
        List.init (List.length spec) Fun.id
        |> List.sort (fun i j ->
               let di, ri = keys.(i) and dj, rj = keys.(j) in
               match compare di dj with
               | 0 -> ( match compare ri rj with 0 -> compare i j | c -> c)
               | c -> c)
      in
      executed = expected)

let rank_of_code = function
  | 0 -> Engine.Delivery
  | 1 -> Engine.Timer
  | _ -> Engine.Background

(* A stream must pop exactly where the same events scheduled all at once
   would.  Plain events are scheduled before and after the stream, and
   every event that runs may schedule a child (delay 0..2, any rank), so
   same-instant ties against later-sequenced events are common at all
   three ranks.  Children are drawn from one list in execution order:
   if the two runs ever diverge, their logs differ. *)
let engine_stream_matches_all_at_once =
  let gen =
    QCheck.Gen.(
      let plain = pair (int_bound 4) (int_bound 2) in
      let child = opt (pair (int_bound 2) (int_bound 2)) in
      tup5
        (list_size (int_bound 6) plain)
        (list_size (int_bound 12) (int_bound 4))
        (list_size (int_bound 6) plain)
        (list_size (int_bound 40) child)
        (int_bound 2))
  in
  QCheck.Test.make ~count:500
    ~name:"Engine.schedule_stream pops as if all were scheduled at once"
    (QCheck.make gen)
    (* [start]: the stream is scheduled from an event at that instant,
       so the clock is not always zero. *)
    (fun (before, times, after, children, start) ->
      let times = Array.of_list (List.sort Int.compare times) in
      let run streamed =
        let e = Engine.create () in
        let log = ref [] and pending = ref children and spawned = ref 0 in
        let label = Label.Static "x" in
        let rec fire name () =
          log := name :: !log;
          match !pending with
          | [] -> ()
          | next :: rest -> (
              pending := rest;
              match next with
              | None -> ()
              | Some (delay, r) ->
                  incr spawned;
                  ignore
                    (Engine.schedule e ~rank:(rank_of_code r)
                       ~delay:(Vtime.of_int delay) ~label
                       (fire ("c" ^ string_of_int !spawned))))
        in
        let plain prefix =
          List.iteri (fun j (at, r) ->
              ignore
                (Engine.schedule_at e ~rank:(rank_of_code r)
                   ~at:(Vtime.of_int (start + at)) ~label
                   (fire (prefix ^ string_of_int j))))
        in
        ignore
          (Engine.schedule_at e ~at:(Vtime.of_int start) ~label (fun () ->
               plain "b" before;
               let at i = Vtime.of_int (start + times.(i)) in
               let name i = "s" ^ string_of_int i in
               if streamed then
                 Engine.schedule_stream e ~count:(Array.length times) ~at
                   ~label (fun i -> fire (name i) ())
               else
                 Array.iteri
                   (fun i _ ->
                     ignore
                       (Engine.schedule_at e ~at:(at i) ~label
                          (fire (name i))))
                   times;
               plain "a" after));
        Engine.run e;
        (List.rev !log, Engine.events_run e, Engine.now e)
      in
      run true = run false)

let test_engine_stream_queues_one () =
  let e = Engine.create () in
  let seen = ref [] in
  Engine.schedule_stream e ~count:1000
    ~at:(fun i -> Vtime.of_int (i / 3))
    ~label:(Label.Static "arrival")
    (fun i -> seen := i :: !seen);
  check Alcotest.int "one queued element" 1 (Engine.pending e);
  Engine.run e;
  check Alcotest.int "all ran" 1000 (Engine.events_run e);
  check Alcotest.(list int) "in index order" (List.init 1000 Fun.id)
    (List.rev !seen);
  check Alcotest.int "clock at the last element" 333 (Engine.now e)

let test_engine_stream_rejects () =
  let e = Engine.create () in
  let label = Label.Static "x" in
  let raises name f =
    check Alcotest.bool name true
      (match f () with () -> false | exception Invalid_argument _ -> true)
  in
  raises "negative count" (fun () ->
      Engine.schedule_stream e ~count:(-1) ~at:(fun _ -> 0) ~label ignore);
  ignore (Engine.schedule e ~delay:(Vtime.of_int 5) ~label ignore);
  Engine.run e;
  raises "first element in the past" (fun () ->
      Engine.schedule_stream e ~count:2 ~at:(fun _ -> 1) ~label ignore);
  Engine.schedule_stream e ~count:0 ~at:(fun _ -> 0) ~label ignore;
  check Alcotest.int "empty stream queues nothing" 0 (Engine.pending e);
  Engine.schedule_stream e ~count:2
    ~at:(fun i -> Vtime.of_int (10 - i))
    ~label ignore;
  raises "decreasing times" (fun () -> Engine.run e)

let () =
  Alcotest.run "commit_sim"
    [
      ( "vtime",
        [
          Alcotest.test_case "add saturates" `Quick test_vtime_add_saturates;
          Alcotest.test_case "sub clips" `Quick test_vtime_sub_clips;
          Alcotest.test_case "of_int rejects negatives" `Quick
            test_vtime_of_int_negative;
          Alcotest.test_case "pretty printing" `Quick test_vtime_pp;
          qtest vtime_add_commutative;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split independence" `Quick
            test_rng_split_independent;
          Alcotest.test_case "pick" `Quick test_rng_pick;
          qtest rng_int_in_bounds;
          qtest rng_int_in_range;
          qtest rng_float_unit_interval;
          qtest rng_shuffle_permutes;
        ] );
      ( "trace",
        [
          Alcotest.test_case "order and filter" `Quick test_trace_order_and_filter;
          Alcotest.test_case "disabled is a no-op" `Quick test_trace_disabled;
          Alcotest.test_case "disabled addf renders nothing" `Quick
            test_trace_addf_disabled_no_side_effects;
          Alcotest.test_case "ring wraps at capacity" `Quick
            test_trace_ring_wrap;
          Alcotest.test_case "no wrap below capacity" `Quick
            test_trace_no_wrap_below_capacity;
          Alcotest.test_case "substring search" `Quick
            test_trace_substring_search;
          Alcotest.test_case "empty trace mem" `Quick test_trace_empty_mem;
        ] );
      ( "label",
        [
          Alcotest.test_case "force" `Quick test_label_force;
          Alcotest.test_case "dynamic unforced when trace off" `Quick
            test_label_dynamic_unforced_when_trace_off;
        ] );
      ( "engine",
        [
          Alcotest.test_case "time order" `Quick test_engine_time_order;
          Alcotest.test_case "rank order at equal times" `Quick
            test_engine_rank_order;
          Alcotest.test_case "FIFO within rank" `Quick
            test_engine_fifo_within_rank;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "scheduling in the past" `Quick
            test_engine_schedule_in_past;
          Alcotest.test_case "run ~until" `Quick test_engine_run_until;
          Alcotest.test_case "runaway guard" `Quick test_engine_max_events_guard;
          Alcotest.test_case "nested scheduling" `Quick
            test_engine_nested_scheduling;
          Alcotest.test_case "same-time nesting order" `Quick
            test_engine_same_time_nested;
          Alcotest.test_case "cancel from an event" `Quick
            test_engine_cancel_from_event;
          Alcotest.test_case "event accounting" `Quick
            test_engine_events_run_counts;
          qtest engine_executes_in_time_order;
          qtest engine_pops_in_compare_event_order;
          Alcotest.test_case "stream queues one element" `Quick
            test_engine_stream_queues_one;
          Alcotest.test_case "stream argument checks" `Quick
            test_engine_stream_rejects;
          qtest engine_stream_matches_all_at_once;
        ] );
    ]
