type decision = Commit | Abort

let pp_decision fmt = function
  | Commit -> Format.pp_print_string fmt "commit"
  | Abort -> Format.pp_print_string fmt "abort"

let equal_decision a b =
  match (a, b) with
  | Commit, Commit | Abort, Abort -> true
  | Commit, Abort | Abort, Commit -> false

type phase = Ph_initial | Ph_wait | Ph_prepared | Ph_committed | Ph_aborted

let pp_phase fmt p =
  Format.pp_print_string fmt
    (match p with
    | Ph_initial -> "initial"
    | Ph_wait -> "wait"
    | Ph_prepared -> "prepared"
    | Ph_committed -> "committed"
    | Ph_aborted -> "aborted")

type msg =
  | Xact
  | Yes
  | No
  | Pre_prepare
  | Pre_ack
  | Prepare
  | Ack
  | Commit_cmd
  | Abort_cmd
  | Probe of { trans_id : int; slave : Site_id.t }
  | State_inquiry of { coordinator : Site_id.t }
  | State_answer of { phase : phase }
  | Px_vote of { instance : Site_id.t; ballot : int; prepared : bool }
  | Px_accept of { instance : Site_id.t; ballot : int; prepared : bool }
  | Px_poll of { ballot : int }
  | Px_promise of { ballot : int; accepted : (Site_id.t * (int * bool)) list }

let msg_tag = function
  | Xact -> "xact"
  | Yes -> "yes"
  | No -> "no"
  | Pre_prepare -> "pre-prepare"
  | Pre_ack -> "pre-ack"
  | Prepare -> "prepare"
  | Ack -> "ack"
  | Commit_cmd -> "commit"
  | Abort_cmd -> "abort"
  | Probe _ -> "probe"
  | State_inquiry _ -> "state-inquiry"
  | State_answer _ -> "state-answer"
  | Px_vote _ -> "px-vote"
  | Px_accept _ -> "px-accept"
  | Px_poll _ -> "px-poll"
  | Px_promise _ -> "px-promise"

let pp_msg fmt = function
  | Probe { trans_id; slave } ->
      Format.fprintf fmt "probe(t%d,%a)" trans_id Site_id.pp slave
  | State_inquiry { coordinator } ->
      Format.fprintf fmt "state-inquiry(%a)" Site_id.pp coordinator
  | State_answer { phase } -> Format.fprintf fmt "state-answer(%a)" pp_phase phase
  | Px_vote { instance; ballot; prepared } ->
      Format.fprintf fmt "px-vote(i%a,b%d,%s)" Site_id.pp instance ballot
        (if prepared then "prepared" else "aborted")
  | Px_accept { instance; ballot; prepared } ->
      Format.fprintf fmt "px-accept(i%a,b%d,%s)" Site_id.pp instance ballot
        (if prepared then "prepared" else "aborted")
  | Px_poll { ballot } -> Format.fprintf fmt "px-poll(b%d)" ballot
  | Px_promise { ballot; accepted } ->
      Format.fprintf fmt "px-promise(b%d,%d accepted)" ballot
        (List.length accepted)
  | (Xact | Yes | No | Pre_prepare | Pre_ack | Prepare | Ack | Commit_cmd
    | Abort_cmd) as m ->
      Format.pp_print_string fmt (msg_tag m)

(* ------------------------------------------------------------------ *)
(* Binary trace codec                                                  *)
(*                                                                     *)
(* A message packs into one int so a trace record can carry it as a    *)
(* template argument: bits 0-4 constructor tag, bits 5-14 site id      *)
(* (slave / coordinator / instance / promise count), bit 15 the        *)
(* [prepared] flag, bits 16-39 the numeric field (trans_id / ballot /  *)
(* phase).  Bits 40+ stay free for an enclosing wire code (the db and  *)
(* cluster layers stash their transaction id there).                   *)
(* ------------------------------------------------------------------ *)

(* 0..4, in declaration order; the inverse lives in [buf_msg_code]'s
   phase table. *)
let phase_index = function
  | Ph_initial -> 0
  | Ph_wait -> 1
  | Ph_prepared -> 2
  | Ph_committed -> 3
  | Ph_aborted -> 4

let phase_names = [| "initial"; "wait"; "prepared"; "committed"; "aborted" |]

let msg_code = function
  | Xact -> 0
  | Yes -> 1
  | No -> 2
  | Pre_prepare -> 3
  | Pre_ack -> 4
  | Prepare -> 5
  | Ack -> 6
  | Commit_cmd -> 7
  | Abort_cmd -> 8
  | Probe { trans_id; slave } ->
      9 lor (Site_id.to_int slave lsl 5) lor (trans_id lsl 16)
  | State_inquiry { coordinator } -> 10 lor (Site_id.to_int coordinator lsl 5)
  | State_answer { phase } -> 11 lor (phase_index phase lsl 16)
  | Px_vote { instance; ballot; prepared } ->
      12
      lor (Site_id.to_int instance lsl 5)
      lor ((if prepared then 1 else 0) lsl 15)
      lor (ballot lsl 16)
  | Px_accept { instance; ballot; prepared } ->
      13
      lor (Site_id.to_int instance lsl 5)
      lor ((if prepared then 1 else 0) lsl 15)
      lor (ballot lsl 16)
  | Px_poll { ballot } -> 14 lor (ballot lsl 16)
  | Px_promise { ballot; accepted } ->
      15 lor (List.length accepted lsl 5) lor (ballot lsl 16)

let tag_names =
  [|
    "xact";
    "yes";
    "no";
    "pre-prepare";
    "pre-ack";
    "prepare";
    "ack";
    "commit";
    "abort";
  |]

(* Renders a {!msg_code} byte-identically to {!pp_msg}. *)
let buf_msg_code b code =
  let tag = code land 0x1f in
  let site b = Site_id.buf b (Site_id.of_int ((code lsr 5) land 0x3ff)) in
  let num = (code lsr 16) land 0xFFFFFF in
  let int b n = Buffer.add_string b (string_of_int n) in
  match tag with
  | 9 ->
      Buffer.add_string b "probe(t";
      int b num;
      Buffer.add_char b ',';
      site b;
      Buffer.add_char b ')'
  | 10 ->
      Buffer.add_string b "state-inquiry(";
      site b;
      Buffer.add_char b ')'
  | 11 ->
      Buffer.add_string b "state-answer(";
      Buffer.add_string b phase_names.(num);
      Buffer.add_char b ')'
  | 12 | 13 ->
      Buffer.add_string b (if tag = 12 then "px-vote(i" else "px-accept(i");
      site b;
      Buffer.add_string b ",b";
      int b num;
      Buffer.add_char b ',';
      Buffer.add_string b
        (if (code lsr 15) land 1 = 1 then "prepared" else "aborted");
      Buffer.add_char b ')'
  | 14 ->
      Buffer.add_string b "px-poll(b";
      int b num;
      Buffer.add_char b ')'
  | 15 ->
      Buffer.add_string b "px-promise(b";
      int b num;
      Buffer.add_char b ',';
      int b ((code lsr 5) land 0x3ff);
      Buffer.add_string b " accepted)"
  | tag -> Buffer.add_string b tag_names.(tag)

let msg_renderer = Network.register_payload_renderer buf_msg_code

(* Pass to [Network.create ~payload_codec] wherever the payload is
   {!msg}, so network trace lines become binary records. *)
let msg_codec : Trace.template * (msg -> int) = (msg_renderer, msg_code)
