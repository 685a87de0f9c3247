(* Unit and property tests for the network substrate (lib/net). *)

let check = Alcotest.check

let qtest = QCheck_alcotest.to_alcotest

let site = Site_id.of_int

(* ------------------------------------------------------------------ *)
(* Site_id                                                             *)
(* ------------------------------------------------------------------ *)

let test_site_id_basics () =
  check Alcotest.int "roundtrip" 4 (Site_id.to_int (site 4));
  check Alcotest.bool "master is 1" true (Site_id.is_master Site_id.master);
  check Alcotest.bool "site 2 not master" false (Site_id.is_master (site 2));
  check Alcotest.int "all" 5 (List.length (Site_id.all ~n:5));
  check Alcotest.int "slaves" 4 (List.length (Site_id.slaves ~n:5));
  check Alcotest.bool "slaves exclude master" false
    (List.exists Site_id.is_master (Site_id.slaves ~n:5));
  check Alcotest.string "pp master" "master"
    (Format.asprintf "%a" Site_id.pp Site_id.master);
  check Alcotest.string "pp slave" "site3" (Format.asprintf "%a" Site_id.pp (site 3));
  Alcotest.check_raises "zero rejected"
    (Invalid_argument "Site_id.of_int: sites are numbered from 1") (fun () ->
      ignore (site 0))

(* ------------------------------------------------------------------ *)
(* Partition                                                           *)
(* ------------------------------------------------------------------ *)

let g2 ints = Site_id.set_of_ints ints

let test_partition_validation () =
  let expect_invalid label f =
    let raised = try ignore (f ()); false with Invalid_argument _ -> true in
    check Alcotest.bool label true raised
  in
  expect_invalid "empty G2" (fun () ->
      Partition.make ~group2:Site_id.Set.empty ~starts_at:Vtime.zero ~n:3 ());
  expect_invalid "master in G2" (fun () ->
      Partition.make ~group2:(g2 [ 1; 2 ]) ~starts_at:Vtime.zero ~n:3 ());
  expect_invalid "site out of range" (fun () ->
      Partition.make ~group2:(g2 [ 9 ]) ~starts_at:Vtime.zero ~n:3 ());
  expect_invalid "heal before start" (fun () ->
      Partition.make ~group2:(g2 [ 2 ]) ~starts_at:(Vtime.of_int 10)
        ~heals_at:(Vtime.of_int 10) ~n:3 ())

let test_partition_membership () =
  let p = Partition.make ~group2:(g2 [ 3 ]) ~starts_at:(Vtime.of_int 100) ~n:3 () in
  check Alcotest.bool "inactive before" false
    (Partition.active_at p (Vtime.of_int 99));
  check Alcotest.bool "active at start" true
    (Partition.active_at p (Vtime.of_int 100));
  check Alcotest.bool "separated 1-3" true
    (Partition.separated p ~at:(Vtime.of_int 100) (site 1) (site 3));
  check Alcotest.bool "not separated 1-2" false
    (Partition.separated p ~at:(Vtime.of_int 100) (site 1) (site 2));
  check Alcotest.bool "not separated before" false
    (Partition.separated p ~at:(Vtime.of_int 50) (site 1) (site 3));
  check Alcotest.bool "side" true (Partition.side p (site 3) = `G2);
  check Alcotest.int "group1 size" 2
    (Site_id.Set.cardinal (Partition.group1 p ~n:3))

let test_partition_transient () =
  let p =
    Partition.make ~group2:(g2 [ 2 ]) ~starts_at:(Vtime.of_int 100)
      ~heals_at:(Vtime.of_int 200) ~n:3 ()
  in
  check Alcotest.bool "transient" true (Partition.is_transient p);
  check Alcotest.bool "active during" true (Partition.active_at p (Vtime.of_int 150));
  check Alcotest.bool "healed at heal instant" false
    (Partition.active_at p (Vtime.of_int 200));
  check Alcotest.bool "none never active" false
    (Partition.active_at Partition.none Vtime.zero)

let test_partition_multiple () =
  let p =
    Partition.make_multiple
      ~groups:[ g2 [ 3 ]; g2 [ 1; 2 ]; g2 [ 4; 5 ] ]
      ~starts_at:(Vtime.of_int 10) ~n:5 ()
  in
  check Alcotest.bool "not simple" false (Partition.is_simple p);
  check Alcotest.int "three cells" 3 (Partition.group_count p);
  (* the master's cell is reordered first *)
  (match Partition.groups p with
  | first :: _ ->
      check Alcotest.bool "master first" true
        (Site_id.Set.mem Site_id.master first)
  | [] -> Alcotest.fail "no cells");
  check Alcotest.bool "1-2 together" false
    (Partition.separated p ~at:(Vtime.of_int 10) (site 1) (site 2));
  check Alcotest.bool "3 separated from 4" true
    (Partition.separated p ~at:(Vtime.of_int 10) (site 3) (site 4));
  check Alcotest.bool "3 separated from 1" true
    (Partition.separated p ~at:(Vtime.of_int 10) (site 1) (site 3));
  check Alcotest.bool "side of 4" true (Partition.side p (site 4) = `G2);
  check Alcotest.int "group2 = everyone outside master's cell" 3
    (Site_id.Set.cardinal (Partition.group2 p));
  let expect_invalid label f =
    let raised = try ignore (f ()); false with Invalid_argument _ -> true in
    check Alcotest.bool label true raised
  in
  expect_invalid "one group only" (fun () ->
      Partition.make_multiple ~groups:[ g2 [ 1; 2; 3 ] ] ~starts_at:Vtime.zero
        ~n:3 ());
  expect_invalid "overlap" (fun () ->
      Partition.make_multiple
        ~groups:[ g2 [ 1; 2 ]; g2 [ 2; 3 ] ]
        ~starts_at:Vtime.zero ~n:3 ());
  expect_invalid "not covering" (fun () ->
      Partition.make_multiple
        ~groups:[ g2 [ 1 ]; g2 [ 2 ] ]
        ~starts_at:Vtime.zero ~n:3 ())

let test_partition_sequence () =
  let a =
    Partition.make ~group2:(g2 [ 3 ]) ~starts_at:(Vtime.of_int 100)
      ~heals_at:(Vtime.of_int 200) ~n:3 ()
  in
  let b =
    Partition.make ~group2:(g2 [ 2 ]) ~starts_at:(Vtime.of_int 300) ~n:3 ()
  in
  let seq = Partition.sequence [ a; b ] in
  check Alcotest.int "two phases" 2 (Partition.phase_count seq);
  check Alcotest.bool "phase A separates 1-3" true
    (Partition.separated seq ~at:(Vtime.of_int 150) (site 1) (site 3));
  check Alcotest.bool "gap: nobody separated" false
    (Partition.separated seq ~at:(Vtime.of_int 250) (site 1) (site 3));
  check Alcotest.bool "phase B separates 1-2" true
    (Partition.separated seq ~at:(Vtime.of_int 400) (site 1) (site 2));
  check Alcotest.bool "phase B does not separate 1-3" false
    (Partition.separated seq ~at:(Vtime.of_int 400) (site 1) (site 3));
  check Alcotest.bool "not simple" false (Partition.is_simple seq);
  let expect_invalid label f =
    let raised = try ignore (f ()); false with Invalid_argument _ -> true in
    check Alcotest.bool label true raised
  in
  expect_invalid "overlap rejected" (fun () ->
      Partition.sequence
        [
          Partition.make ~group2:(g2 [ 3 ]) ~starts_at:(Vtime.of_int 100)
            ~heals_at:(Vtime.of_int 400) ~n:3 ();
          b;
        ]);
  expect_invalid "never-healing phase cannot precede" (fun () ->
      Partition.sequence
        [
          Partition.make ~group2:(g2 [ 3 ]) ~starts_at:(Vtime.of_int 100) ~n:3
            ();
          b;
        ])

(* A generated chain of non-overlapping cut/heal windows, from a list
   of (gap, width) pairs: phase i starts gap+1 after the previous heal
   and stays up for width+1 ticks. *)
let build_timeline ~n specs =
  let phases, windows, _ =
    List.fold_left
      (fun (phases, windows, t0) (gap, width) ->
        let starts = t0 + gap + 1 in
        let heals = starts + width + 1 in
        ( Partition.make ~group2:(g2 [ n ]) ~starts_at:(Vtime.of_int starts)
            ~heals_at:(Vtime.of_int heals) ~n ()
          :: phases,
          (starts, heals) :: windows,
          heals ))
      ([], [], 0) specs
  in
  (Partition.sequence (List.rev phases), List.rev windows)

let sequence_active_exactly_in_phases =
  QCheck.Test.make ~count:300
    ~name:"sequence: active_at holds exactly inside the cut/heal windows"
    QCheck.(
      pair (int_range 3 6)
        (list_of_size Gen.(int_range 1 4) (pair small_nat small_nat)))
    (fun (n, specs) ->
      QCheck.assume (specs <> []);
      let timeline, windows = build_timeline ~n specs in
      Partition.phase_count timeline = List.length specs
      && List.for_all
           (fun (starts, heals) ->
             (* heal strictly after cut, and the window half-open *)
             heals > starts
             && Partition.active_at timeline (Vtime.of_int starts)
             && Partition.active_at timeline (Vtime.of_int (heals - 1))
             && not (Partition.active_at timeline (Vtime.of_int heals))
             && not (Partition.active_at timeline (Vtime.of_int (starts - 1))))
           windows)

let sequence_rejects_overlap =
  QCheck.Test.make ~count:300
    ~name:"sequence: a phase starting inside the previous window is rejected"
    QCheck.(triple (int_range 3 6) small_nat small_nat)
    (fun (n, start, inside) ->
      let starts_at = start + 1 in
      let heals_at = starts_at + 10 in
      let first =
        Partition.make ~group2:(g2 [ n ]) ~starts_at:(Vtime.of_int starts_at)
          ~heals_at:(Vtime.of_int heals_at) ~n ()
      in
      let second_start = starts_at + (inside mod 10) in
      let second =
        Partition.make
          ~group2:(g2 [ 2 ])
          ~starts_at:(Vtime.of_int second_start) ~n ()
      in
      try
        ignore (Partition.sequence [ first; second ]);
        false
      with Invalid_argument _ -> true)

let separated_symmetric_within_group =
  QCheck.Test.make ~count:500
    ~name:"separated: symmetric, irreflexive, and only across the boundary"
    QCheck.(
      quad (int_range 3 8) (pair small_nat small_nat)
        (pair small_nat small_nat) small_nat)
    (fun (n, (gap, width), (a0, b0), at0) ->
      let timeline, windows = build_timeline ~n [ (gap, width) ] in
      let a = site ((a0 mod n) + 1) and b = site ((b0 mod n) + 1) in
      let starts, heals = List.hd windows in
      let at = Vtime.of_int (at0 mod (heals + 2)) in
      let in_g2 s = Site_id.Set.mem s (Partition.group2 timeline) in
      let sep = Partition.separated timeline ~at a b in
      sep = Partition.separated timeline ~at b a
      && (not (Partition.separated timeline ~at a a))
      && sep
         = (Vtime.to_int at >= starts
           && Vtime.to_int at < heals
           && in_g2 a <> in_g2 b))

(* One drawn phase: its cells as site lists, master's cell first, its
   window [starts, heals), and whether [make] (two cells) or
   [make_multiple] builds it. *)
type drawn_phase = {
  simple : bool;
  cells : int list list;
  starts : int;
  heals : int option;
}

(* A simple partition, a multiple partitioning, or a two-phase
   [Partition.sequence] of either, at n = 3 to 6.  The second phase may
   start at the very tick the first heals. *)
let drawn_partition =
  let open QCheck.Gen in
  let* n = int_range 3 6 in
  let sites = List.init n succ in
  let cells simple =
    if simple then
      let+ mask = int_range 1 ((1 lsl (n - 1)) - 1) in
      List.partition (fun s -> s = 1 || mask land (1 lsl (s - 2)) = 0) sites
      |> fun (g1, g2) -> [ g1; g2 ]
    else
      (* Sites with one label share a cell; site n gets a cell of its
         own when every label is the same. *)
      let+ labels = list_repeat n (int_range 0 (n - 1)) in
      let label s =
        if s = n && List.for_all (( = ) (List.hd labels)) labels then n
        else List.nth labels (s - 1)
      in
      let cell l = List.filter (fun s -> label s = l) sites in
      cell (label 1)
      :: List.filter_map
           (fun l -> if l = label 1 || cell l = [] then None else Some (cell l))
           (List.init (n + 1) Fun.id)
  in
  let phase ~after ~healed =
    let* simple = bool in
    let* cells = cells simple in
    let* starts = map (( + ) after) (int_range 0 3_000) in
    let width = map (( + ) starts) (int_range 1 3_000) in
    let+ heals = if healed then map Option.some width else opt width in
    { simple; cells; starts; heals }
  in
  let* two = bool in
  let* first = phase ~after:0 ~healed:two in
  let+ rest =
    if two then
      map (fun p -> [ p ]) (phase ~after:(Option.get first.heals) ~healed:false)
    else return []
  in
  (n, first :: rest)

(* The partition [make], [make_multiple] and [sequence] build from the
   drawn phases. *)
let build_drawn n phases =
  let build p =
    let starts_at = Vtime.of_int p.starts
    and heals_at = Option.map Vtime.of_int p.heals
    and sets = List.map Site_id.set_of_ints p.cells in
    if p.simple then
      Partition.make ?heals_at ~group2:(List.nth sets 1) ~starts_at ~n ()
    else Partition.make_multiple ?heals_at ~groups:sets ~starts_at ~n ()
  in
  Partition.sequence (List.map build phases)

let separated_matches_reference =
  let print (n, phases) =
    Format.asprintf "n=%d %a" n Partition.pp (build_drawn n phases)
  in
  QCheck.Test.make ~count:500
    ~name:"separated equals a set-based reference at every window edge"
    (QCheck.make ~print drawn_partition)
    (fun (n, phases) ->
      let partition = build_drawn n phases in
      let reference at a b =
        match
          List.find_opt
            (fun p ->
              p.starts <= at
              && match p.heals with None -> true | Some h -> at < h)
            phases
        with
        | None -> false
        | Some p ->
            let cell s =
              List.find (Site_id.Set.mem (site s))
                (List.map Site_id.set_of_ints p.cells)
            in
            not (Site_id.Set.equal (cell a) (cell b))
      in
      let instants =
        List.concat_map
          (fun p ->
            List.concat_map
              (fun at -> [ at - 1; at; at + 1 ])
              (p.starts :: Option.to_list p.heals))
          phases
        |> List.filter (fun at -> at >= 0)
      in
      let sites = List.init n succ in
      List.for_all
        (fun at ->
          List.for_all
            (fun a ->
              List.for_all
                (fun b ->
                  Partition.separated partition ~at:(Vtime.of_int at) (site a)
                    (site b)
                  = reference at a b)
                sites)
            sites)
        instants)

(* ------------------------------------------------------------------ *)
(* Delay                                                               *)
(* ------------------------------------------------------------------ *)

let delay_always_in_bounds =
  QCheck.Test.make ~name:"Delay.sample always lands in [1, T]"
    QCheck.(pair (int_range 1 2000) small_nat)
    (fun (t_max, seed) ->
      let rng = Rng.create (Int64.of_int seed) in
      let models =
        [
          Delay.minimal;
          Delay.full ~t_max:(Vtime.of_int t_max);
          Delay.uniform ~t_max:(Vtime.of_int t_max);
          Delay.Fixed (Vtime.of_int (t_max * 3));
          (* out of range on purpose *)
          Delay.Per_link (fun _ _ -> Vtime.of_int 0);
          (* too small on purpose *)
        ]
      in
      List.for_all
        (fun model ->
          let d =
            Delay.sample model ~rng ~t_max:(Vtime.of_int t_max)
              ~src:Site_id.master ~dst:(Site_id.of_int 2)
          in
          1 <= d && d <= t_max)
        models)

(* ------------------------------------------------------------------ *)
(* Network                                                             *)
(* ------------------------------------------------------------------ *)

type recorded = {
  mutable deliveries : (Site_id.t * string Network.delivery) list;
}

let make_net ?(n = 3) ?(t = 100) ?mode ?partition ?delay () =
  let engine = Engine.create ~trace:(Trace.create ~enabled:false ()) () in
  let net =
    Network.create ~engine ~n ~t_max:(Vtime.of_int t) ?mode ?partition ?delay
      ~pp_payload:Format.pp_print_string ()
  in
  let record = { deliveries = [] } in
  Network.set_handler net (fun s d -> record.deliveries <- (s, d) :: record.deliveries);
  (engine, net, record)

let test_network_delivers () =
  let engine, net, record = make_net () in
  Network.send net ~src:(site 1) ~dst:(site 2) "hello";
  Engine.run engine;
  match record.deliveries with
  | [ (dst, Network.Msg e) ] ->
      check Alcotest.int "destination" 2 (Site_id.to_int dst);
      check Alcotest.string "payload" "hello" e.payload;
      check Alcotest.int "src" 1 (Site_id.to_int e.src);
      check Alcotest.bool "within T" true (Engine.now engine <= 100)
  | _ -> Alcotest.fail "expected exactly one delivery"

let test_network_no_self_send () =
  let _, net, _ = make_net () in
  Alcotest.check_raises "self-send rejected"
    (Invalid_argument "Network.send: a site does not message itself") (fun () ->
      Network.send net ~src:(site 2) ~dst:(site 2) "x")

let test_network_broadcast () =
  let engine, net, record = make_net ~n:4 () in
  Network.broadcast net ~src:(site 1) "cmd";
  Engine.run engine;
  check Alcotest.int "three deliveries" 3 (List.length record.deliveries);
  let dsts =
    List.sort Int.compare
      (List.map (fun (d, _) -> Site_id.to_int d) record.deliveries)
  in
  check Alcotest.(list int) "to slaves" [ 2; 3; 4 ] dsts

let test_network_optimistic_bounce () =
  let partition =
    Partition.make ~group2:(g2 [ 3 ]) ~starts_at:Vtime.zero ~n:3 ()
  in
  let engine, net, record = make_net ~partition () in
  Network.send net ~src:(site 1) ~dst:(site 3) "cross";
  Engine.run engine;
  (match record.deliveries with
  | [ (dst, Network.Undeliverable e) ] ->
      check Alcotest.int "returned to sender" 1 (Site_id.to_int dst);
      check Alcotest.string "original payload" "cross" e.payload;
      check Alcotest.int "original dst" 3 (Site_id.to_int e.dst);
      check Alcotest.bool "round trip within 2T" true (Engine.now engine <= 200)
  | _ -> Alcotest.fail "expected one bounce");
  let stats = Network.stats net in
  check Alcotest.int "bounced" 1 stats.bounced;
  check Alcotest.int "delivered" 0 stats.delivered

let test_network_pessimistic_loss () =
  let partition =
    Partition.make ~group2:(g2 [ 3 ]) ~starts_at:Vtime.zero ~n:3 ()
  in
  let engine, net, record =
    make_net ~mode:Network.Pessimistic ~partition ()
  in
  Network.send net ~src:(site 1) ~dst:(site 3) "cross";
  Engine.run engine;
  check Alcotest.int "nothing arrives" 0 (List.length record.deliveries);
  check Alcotest.int "lost" 1 (Network.stats net).lost

let test_network_same_side_during_partition () =
  let partition =
    Partition.make ~group2:(g2 [ 3; 4 ]) ~starts_at:Vtime.zero ~n:4 ()
  in
  let engine, net, record = make_net ~n:4 ~partition () in
  Network.send net ~src:(site 3) ~dst:(site 4) "inside-G2";
  Network.send net ~src:(site 1) ~dst:(site 2) "inside-G1";
  Engine.run engine;
  check Alcotest.int "both delivered" 2 (List.length record.deliveries);
  check Alcotest.bool "all Msg" true
    (List.for_all
       (fun (_, d) ->
         match d with Network.Msg _ -> true | Network.Undeliverable _ -> false)
       record.deliveries)

let test_network_transient_heal_in_flight () =
  (* Sent during the partition with a slow hop; arrives after the heal,
     so it is delivered — the Section 6 message-race structure. *)
  let partition =
    Partition.make ~group2:(g2 [ 2 ]) ~starts_at:Vtime.zero
      ~heals_at:(Vtime.of_int 50) ~n:3 ()
  in
  let engine, net, record =
    make_net ~partition ~delay:(Delay.Fixed (Vtime.of_int 80)) ()
  in
  ignore net;
  Network.send net ~src:(site 1) ~dst:(site 2) "late";
  Engine.run engine;
  (match record.deliveries with
  | [ (_, Network.Msg e) ] -> check Alcotest.string "delivered" "late" e.payload
  | _ -> Alcotest.fail "expected a delivery after heal");
  (* Fast hop arrives during the partition: bounced. *)
  let partition2 =
    Partition.make ~group2:(g2 [ 2 ]) ~starts_at:Vtime.zero
      ~heals_at:(Vtime.of_int 50) ~n:3 ()
  in
  let engine2, net2, record2 =
    make_net ~partition:partition2 ~delay:(Delay.Fixed (Vtime.of_int 10)) ()
  in
  Network.send net2 ~src:(site 1) ~dst:(site 2) "early";
  Engine.run engine2;
  match record2.deliveries with
  | [ (_, Network.Undeliverable _) ] -> ()
  | _ -> Alcotest.fail "expected a bounce during the partition"

let test_network_crash_semantics () =
  let engine, net, record = make_net () in
  Network.crash net (site 3);
  check Alcotest.bool "dead" false (Network.alive net (site 3));
  Network.send net ~src:(site 1) ~dst:(site 3) "to-dead";
  (* A dead site also emits nothing (its timers firing must not leak
     messages — the Section 7 experiments depend on this). *)
  Network.send net ~src:(site 3) ~dst:(site 2) "from-dead";
  Engine.run engine;
  check Alcotest.int "no delivery, no bounce" 0 (List.length record.deliveries);
  check Alcotest.int "both lost" 2 (Network.stats net).lost;
  check Alcotest.int "nothing counted as sent" 1 (Network.stats net).sent

let test_network_tap () =
  let partition =
    Partition.make ~group2:(g2 [ 3 ]) ~starts_at:Vtime.zero ~n:3 ()
  in
  let engine, net, _ = make_net ~partition () in
  let events = ref [] in
  Network.set_tap net (fun e -> events := e :: !events);
  Network.send net ~src:(site 1) ~dst:(site 2) "ok";
  Network.send net ~src:(site 1) ~dst:(site 3) "cross";
  Engine.run engine;
  let count pred = List.length (List.filter pred !events) in
  check Alcotest.int "2 sent" 2
    (count (function Network.Sent _ -> true | _ -> false));
  check Alcotest.int "1 delivered" 1
    (count (function Network.Delivered _ -> true | _ -> false));
  check Alcotest.int "1 bounced" 1
    (count (function Network.Bounced _ -> true | _ -> false))

let bounce_within_2t =
  QCheck.Test.make ~count:200
    ~name:"a bounce returns to its sender within 2T of the send"
    QCheck.(pair small_nat (int_range 1 500))
    (fun (seed, t_max) ->
      let partition =
        Partition.make ~group2:(g2 [ 3 ]) ~starts_at:Vtime.zero ~n:3 ()
      in
      let engine = Engine.create ~trace:(Trace.create ~enabled:false ()) () in
      let net =
        Network.create ~engine ~n:3 ~t_max:(Vtime.of_int t_max) ~partition
          ~seed:(Int64.of_int seed) ()
      in
      Network.set_handler net (fun _ _ -> ());
      let ok = ref true in
      Network.set_tap net (fun event ->
          match event with
          | Network.Bounced { env; at } ->
              if at - env.Network.sent_at > 2 * t_max then ok := false
          | Network.Delivered { env; at } ->
              if at - env.Network.sent_at > t_max then ok := false
          | Network.Sent _ | Network.Lost _ -> ());
      for i = 2 to 3 do
        Network.send net ~src:(site 1) ~dst:(site i) "m";
        Network.send net ~src:(site i) ~dst:(site 1) "m"
      done;
      Engine.run engine;
      !ok)

let network_conserves_messages =
  QCheck.Test.make ~name:"every sent message is delivered, bounced or lost"
    QCheck.(pair (list (pair (int_range 1 4) (int_range 1 4))) small_nat)
    (fun (sends, seed) ->
      let partition =
        Partition.make ~group2:(g2 [ 3; 4 ]) ~starts_at:(Vtime.of_int 30) ~n:4 ()
      in
      let engine = Engine.create ~trace:(Trace.create ~enabled:false ()) () in
      let net =
        Network.create ~engine ~n:4 ~t_max:(Vtime.of_int 50) ~partition
          ~seed:(Int64.of_int seed) ()
      in
      Network.set_handler net (fun _ _ -> ());
      let sent = ref 0 in
      List.iter
        (fun (a, b) ->
          if a <> b then begin
            incr sent;
            Network.send net ~src:(site a) ~dst:(site b) "m"
          end)
        sends;
      Engine.run engine;
      let stats = Network.stats net in
      stats.sent = !sent
      && stats.delivered + stats.bounced + stats.lost = !sent)

let () =
  Alcotest.run "commit_net"
    [
      ("site_id", [ Alcotest.test_case "basics" `Quick test_site_id_basics ]);
      ( "partition",
        [
          Alcotest.test_case "validation" `Quick test_partition_validation;
          Alcotest.test_case "membership" `Quick test_partition_membership;
          Alcotest.test_case "transient" `Quick test_partition_transient;
          Alcotest.test_case "multiple partitioning" `Quick
            test_partition_multiple;
          Alcotest.test_case "partition sequences" `Quick
            test_partition_sequence;
          qtest sequence_active_exactly_in_phases;
          qtest sequence_rejects_overlap;
          qtest separated_symmetric_within_group;
          qtest separated_matches_reference;
        ] );
      ("delay", [ qtest delay_always_in_bounds ]);
      ( "network",
        [
          Alcotest.test_case "delivers" `Quick test_network_delivers;
          Alcotest.test_case "rejects self-send" `Quick test_network_no_self_send;
          Alcotest.test_case "broadcast" `Quick test_network_broadcast;
          Alcotest.test_case "optimistic bounce" `Quick
            test_network_optimistic_bounce;
          Alcotest.test_case "pessimistic loss" `Quick
            test_network_pessimistic_loss;
          Alcotest.test_case "same side unaffected" `Quick
            test_network_same_side_during_partition;
          Alcotest.test_case "transient heal race" `Quick
            test_network_transient_heal_in_flight;
          Alcotest.test_case "crash semantics" `Quick test_network_crash_semantics;
          Alcotest.test_case "tap" `Quick test_network_tap;
          qtest network_conserves_messages;
          qtest bounce_within_2t;
        ] );
    ]
