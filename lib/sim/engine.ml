type rank = Delivery | Timer | Background

let rank_code = function Delivery -> 0 | Timer -> 1 | Background -> 2

(* One block per scheduled event: the handle IS the event (the old
   separate handle record was a second allocation per schedule).  The
   [(rank, seq)] tie-break is packed into a single immediate int so the
   heap ordering is two int comparisons, no closure, no field chase
   through a nested record.  [at] stays separate because it may be
   [Vtime.infinity] (= max_int) and cannot share a word. *)
type event = {
  at : Vtime.t;
  key : int;  (* (rank_code lsl 60) lor seq; seq < 2^60 *)
  mutable live : bool;
  label : Label.t;
  action : unit -> unit;
}

type handle = event

let key_bits = 60

(* [Vtime.t] is an int by its public definition, so these compare as
   unboxed ints. *)
let[@inline] precedes a b = a.at < b.at || (a.at = b.at && a.key < b.key)

let dummy =
  {
    at = Vtime.zero;
    key = 0;
    live = false;
    label = Label.Static "<none>";
    action = ignore;
  }

let tmpl_runaway =
  Trace.register_template (fun b _ n _ _ _ _ ->
      Buffer.add_string b "run aborted after ";
      Buffer.add_string b (string_of_int n);
      Buffer.add_string b " events (runaway guard)")

type t = {
  mutable clock : Vtime.t;
  (* Monomorphic binary min-heap with [precedes] inlined at each sift
     step, so no comparison closure is called per step. *)
  mutable heap : event array;
  mutable size : int;
  mutable trace : Trace.t;
  mutable next_seq : int;
  mutable executed : int;
}

let create ?trace () =
  let trace = match trace with Some t -> t | None -> Trace.create () in
  {
    clock = Vtime.zero;
    heap = [||];
    size = 0;
    trace;
    next_seq = 0;
    executed = 0;
  }

let now t = t.clock

let trace t = t.trace

(* Rewind to the just-created state while keeping the grown heap array.
   The live region is wiped with the sentinel so stale events (and the
   closures they capture) are unreachable; a run over a reset engine is
   observationally identical to one over [create].  This is what makes
   an engine a sound per-domain scratch for sweeps: reuse amortises the
   heap's growth-by-doubling across thousands of runs. *)
let reset ?trace t =
  (match trace with Some tr -> t.trace <- tr | None -> ());
  Array.fill t.heap 0 t.size dummy;
  t.size <- 0;
  t.clock <- Vtime.zero;
  t.next_seq <- 0;
  t.executed <- 0

(* Cancelled events stay in the heap and are skipped at pop time, so
   [pending] counts queued events including not-yet-drained cancelled
   ones; it reaches zero exactly when the queue is exhausted. *)
let pending t = t.size

let events_run t = t.executed

let heap_push t event =
  (if t.size = Array.length t.heap then
     let heap = Array.make (max 16 (2 * t.size)) dummy in
     Array.blit t.heap 0 heap 0 t.size;
     t.heap <- heap);
  let heap = t.heap in
  let i = ref t.size in
  t.size <- t.size + 1;
  let sifting = ref true in
  while !sifting && !i > 0 do
    let parent = (!i - 1) / 2 in
    let p = Array.unsafe_get heap parent in
    if precedes event p then (
      Array.unsafe_set heap !i p;
      i := parent)
    else sifting := false
  done;
  Array.unsafe_set heap !i event

(* Caller checks [t.size > 0]. *)
let heap_pop t =
  let heap = t.heap in
  let root = Array.unsafe_get heap 0 in
  let n = t.size - 1 in
  t.size <- n;
  let last = Array.unsafe_get heap n in
  Array.unsafe_set heap n dummy;
  if n > 0 then (
    let i = ref 0 in
    let sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= n then sifting := false
      else
        let r = l + 1 in
        let c =
          if r < n && precedes (Array.unsafe_get heap r) (Array.unsafe_get heap l)
          then r
          else l
        in
        let child = Array.unsafe_get heap c in
        if precedes child last then (
          Array.unsafe_set heap !i child;
          i := c)
        else sifting := false
    done;
    Array.unsafe_set heap !i last);
  root

let schedule_at t ?(rank = Background) ~at ~label action =
  if Vtime.( < ) at t.clock then
    invalid_arg
      (Format.asprintf "Engine.schedule_at: %a is before now (%a)" Vtime.pp at
         Vtime.pp t.clock);
  let event =
    { at; key = (rank_code rank lsl key_bits) lor t.next_seq; live = true;
      label; action }
  in
  t.next_seq <- t.next_seq + 1;
  heap_push t event;
  event

let schedule t ?rank ~delay ~label action =
  schedule_at t ?rank ~at:(Vtime.add t.clock delay) ~label action

(* The whole stream's sequence numbers are reserved now, so element [i]
   carries the key it would have had if all [count] were scheduled here
   at once.  Only the next element sits in the heap: element [i + 1] is
   pushed when element [i] pops, and it cannot have been due earlier,
   because its time is no smaller and its key is larger.  Every pop
   therefore picks the event it would have picked from the full
   schedule.  Streams run at [Background] rank. *)
let schedule_stream t ~count ~at ~label action =
  if count < 0 then invalid_arg "Engine.schedule_stream: negative count";
  if count > 0 then begin
    let first = at 0 in
    if Vtime.( < ) first t.clock then
      invalid_arg
        (Format.asprintf "Engine.schedule_stream: %a is before now (%a)"
           Vtime.pp first Vtime.pp t.clock);
    let base = (rank_code Background lsl key_bits) lor t.next_seq in
    t.next_seq <- t.next_seq + count;
    let rec element i time =
      {
        at = time;
        key = base + i;
        live = true;
        label;
        action =
          (fun () ->
            (if i + 1 < count then
               let next = at (i + 1) in
               if Vtime.( < ) next time then
                 invalid_arg "Engine.schedule_stream: times must not decrease";
               heap_push t (element (i + 1) next));
            action i);
      }
    in
    heap_push t (element 0 first)
  end

let cancel handle = handle.live <- false

let cancelled handle = not handle.live

let rec step t =
  if t.size = 0 then false
  else
    let event = heap_pop t in
    if not event.live then step t
    else (
      t.clock <- event.at;
      event.live <- false;
      t.executed <- t.executed + 1;
      event.action ();
      true)

let default_max_events = 10_000_000

let run ?(until = Vtime.infinity) ?(max_events = default_max_events) t =
  let budget = ref max_events in
  let continue = ref true in
  while !continue && !budget > 0 do
    if t.size = 0 then continue := false
    else if Vtime.( < ) until (Array.unsafe_get t.heap 0).at then
      continue := false
    else if step t then decr budget
    else continue := false
  done;
  if !budget = 0 then
    Trace.log1 t.trace ~at:t.clock
      ~topic:(Trace.topic t.trace "engine")
      tmpl_runaway max_events
