(* Property tests for the binary trace/obs storage: deferred rendering
   must be byte-identical to the eager printf path it replaced, across
   random messages, ring-wrap boundaries, and whole network runs.  The
   golden files pin the seed output; these properties pin the two
   implementations against each other on inputs no golden covers. *)

let tmpl_v =
  Trace.register_template (fun b _ v _ _ _ _ ->
      Buffer.add_string b "v=";
      Buffer.add_string b (string_of_int v))

(* ---- renderer vs printf equivalence ------------------------------------ *)

let msg_gen : Types.msg QCheck.Gen.t =
  let open QCheck.Gen in
  let site = map Site_id.of_int (int_range 1 64) in
  let ballot = int_range 0 0xFFFF in
  let phase =
    oneofl
      [
        Types.Ph_initial;
        Types.Ph_wait;
        Types.Ph_prepared;
        Types.Ph_committed;
        Types.Ph_aborted;
      ]
  in
  oneof
    [
      oneofl
        [
          Types.Xact;
          Types.Yes;
          Types.No;
          Types.Pre_prepare;
          Types.Pre_ack;
          Types.Prepare;
          Types.Ack;
          Types.Commit_cmd;
          Types.Abort_cmd;
        ];
      map2
        (fun trans_id slave -> Types.Probe { trans_id; slave })
        (int_range 0 0xFFFFFF) site;
      map (fun coordinator -> Types.State_inquiry { coordinator }) site;
      map (fun phase -> Types.State_answer { phase }) phase;
      map3
        (fun instance ballot prepared ->
          Types.Px_vote { instance; ballot; prepared })
        site ballot bool;
      map3
        (fun instance ballot prepared ->
          Types.Px_accept { instance; ballot; prepared })
        site ballot bool;
      map (fun ballot -> Types.Px_poll { ballot }) ballot;
      map2
        (fun ballot k ->
          Types.Px_promise
            {
              ballot;
              accepted = List.init k (fun i -> (Site_id.of_int (i + 1), (0, false)));
            })
        ballot (int_range 0 20);
    ]

let arb_msg = QCheck.make ~print:(Format.asprintf "%a" Types.pp_msg) msg_gen

let msg_code_roundtrip =
  QCheck.Test.make ~count:500 ~name:"buf_msg_code renders pp_msg exactly"
    arb_msg (fun m ->
      let b = Buffer.create 64 in
      Types.buf_msg_code b (Types.msg_code m);
      String.equal (Buffer.contents b) (Format.asprintf "%a" Types.pp_msg m))

let site_mask_roundtrip =
  QCheck.Test.make ~count:500 ~name:"buf_set_mask renders pp_set exactly"
    QCheck.(list_of_size (QCheck.Gen.int_range 0 12) (int_range 1 60))
    (fun sites ->
      let set = Site_id.set_of_ints sites in
      let b = Buffer.create 64 in
      Site_id.buf_set_mask b (Site_id.set_to_mask set);
      String.equal (Buffer.contents b)
        (Format.asprintf "%a" Site_id.pp_set set))

let vtime_buf_roundtrip =
  QCheck.Test.make ~count:200 ~name:"Vtime.buf renders Vtime.pp exactly"
    QCheck.(small_nat)
    (fun n ->
      let check t =
        let b = Buffer.create 16 in
        Vtime.buf b t;
        String.equal (Buffer.contents b) (Format.asprintf "%a" Vtime.pp t)
      in
      check (Vtime.of_int n) && check Vtime.infinity)

(* ---- binary storage vs eager model across ring wrap -------------------- *)

(* The same (at, topic, "v=<n>") sequence appended three times: through
   the typed template path or the eager [addf] path into [binary], the
   eager path into [model], and into [mixed], a log of the same small
   capacity that also keeps spans, where span records ride along: some
   lines are span records too, and bare span begin/end pairs fall
   between lines.  Rendered output (so the dropped count too), length,
   topic filtering and pattern search must agree after the ring has
   wrapped, and [mixed]'s span view must have kept every span record. *)
let storage_model =
  QCheck.Test.make ~count:300
    ~name:"typed records render like eager strings across ring wrap"
    QCheck.(
      pair (int_range 1 8)
        (small_list (triple (int_range 0 3) (int_range 0 1) small_nat)))
    (fun (capacity, ops) ->
      let binary = Trace.create ~capacity () in
      let model = Trace.create ~capacity () in
      let mixed = Obs.log (Trace.recorder ~capacity ()) ~text:true in
      let spans = ref 0 in
      List.iteri
        (fun i (op, topic_i, v) ->
          let at = Vtime.of_int i in
          let topic = if topic_i = 0 then "a" else "b" in
          let line t = Trace.log1 t ~at ~topic:(Trace.topic t topic) tmpl_v v in
          let eager t = Trace.addf t ~at ~topic "v=%d" v in
          match op with
          | 0 ->
              line binary;
              line mixed;
              eager model
          | 1 ->
              eager binary;
              eager mixed;
              eager model
          | 2 ->
              (* one record that is both a line and an instant *)
              line binary;
              Trace.instant mixed ~at ~site:1 ~tid:v
                ~cat:(Trace.intern mixed "mark") ~name:(Trace.intern mixed "i")
                ~topic:(Trace.topic mixed topic) tmpl_v v 0 0 0;
              eager model;
              incr spans
          | _ ->
              Obs.span_begin mixed ~at ~site:1 ~tid:v "s";
              Obs.span_end mixed ~at ~site:1 ~tid:v;
              spans := !spans + 2)
        ops;
      let render t = Format.asprintf "%a" Trace.pp t in
      let agrees t =
        String.equal (render t) (render model)
        && Trace.dropped t = Trace.dropped model
        && Trace.length t = Trace.length model
        && Bool.equal (Trace.mem t ~pattern:"v=3") (Trace.mem model ~pattern:"v=3")
        && List.length (Trace.filter ~topic:"a" t)
           = List.length (Trace.filter ~topic:"a" model)
      in
      agrees binary && agrees mixed && Obs.num_events mixed = !spans)

(* ---- codec network vs eager network ------------------------------------ *)

(* Two identical runs over the same engine seed and send schedule — one
   network created with [payload_codec] (binary trace records, coded
   obs flow names), one without (the legacy eager path).  Every trace
   line and both obs exports must match byte for byte, across deliver /
   bounce / lost-at-B / dead-endpoint paths. *)

type scenario = {
  sc_n : int;
  sc_seed : int;
  sc_cut : bool;
  sc_crash : bool;
  sc_sends : (int * int * int * Types.msg) list;  (* at, src, dst-offset *)
}

let scenario_gen : scenario QCheck.Gen.t =
  let open QCheck.Gen in
  int_range 3 5 >>= fun sc_n ->
  int_range 0 9999 >>= fun sc_seed ->
  bool >>= fun sc_cut ->
  bool >>= fun sc_crash ->
  list_size (int_range 1 40)
    (quad (int_range 0 4000) (int_range 1 sc_n) (int_range 1 (sc_n - 1)) msg_gen)
  >>= fun sc_sends -> return { sc_n; sc_seed; sc_cut; sc_crash; sc_sends }

let run_scenario ~codec sc =
  let obs = Obs.create () in
  let trace = Obs.log obs ~text:true in
  let engine = Engine.create ~trace () in
  let partition =
    if sc.sc_cut then
      Partition.make
        ~group2:(Site_id.set_of_ints [ sc.sc_n ])
        ~starts_at:(Vtime.of_int 1000) ~heals_at:(Vtime.of_int 3000) ~n:sc.sc_n
        ()
    else Partition.none
  in
  let net =
    if codec then
      Network.create ~engine ~n:sc.sc_n ~t_max:(Vtime.of_int 100) ~partition
        ~seed:(Int64.of_int sc.sc_seed) ~pp_payload:Types.pp_msg
        ~payload_codec:Types.msg_codec ()
    else
      Network.create ~engine ~n:sc.sc_n ~t_max:(Vtime.of_int 100) ~partition
        ~seed:(Int64.of_int sc.sc_seed) ~pp_payload:Types.pp_msg ()
  in
  Network.set_handler net (fun _ _ -> ());
  List.iter
    (fun (at, src, off, msg) ->
      let dst = ((src - 1 + off) mod sc.sc_n) + 1 in
      ignore
        (Engine.schedule_at engine ~at:(Vtime.of_int at)
           ~label:(Label.Static "qc-send") (fun () ->
             Network.send net ~src:(Site_id.of_int src)
               ~dst:(Site_id.of_int dst) msg)))
    sc.sc_sends;
  if sc.sc_crash then
    ignore
      (Engine.schedule_at engine ~at:(Vtime.of_int 2500)
         ~label:(Label.Static "qc-crash") (fun () ->
           Network.crash net (Site_id.of_int 2)));
  Engine.run engine;
  Obs.close_open_spans obs ~at:(Engine.now engine);
  ( Format.asprintf "%a" Trace.pp trace,
    Obs.to_trace_event_json obs,
    Obs.to_causality_json obs )

let network_codec_identical =
  QCheck.Test.make ~count:100
    ~name:"codec network run byte-identical to eager network run"
    (QCheck.make scenario_gen)
    (fun sc ->
      let t1, p1, c1 = run_scenario ~codec:true sc in
      let t2, p2, c2 = run_scenario ~codec:false sc in
      String.equal t1 t2 && String.equal p1 p2 && String.equal c1 c2)

let () =
  Alcotest.run "trace-qcheck"
    [
      ( "byte-identity",
        [
          QCheck_alcotest.to_alcotest msg_code_roundtrip;
          QCheck_alcotest.to_alcotest site_mask_roundtrip;
          QCheck_alcotest.to_alcotest vtime_buf_roundtrip;
          QCheck_alcotest.to_alcotest storage_model;
          QCheck_alcotest.to_alcotest network_codec_identical;
        ] );
    ]
