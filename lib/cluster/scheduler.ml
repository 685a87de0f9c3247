type policy = Fixed_master | Round_robin | Partition_aware

let policy_name = function
  | Fixed_master -> "fixed"
  | Round_robin -> "round-robin"
  | Partition_aware -> "partition-aware"

type 'a t = {
  policy : policy;
  queue_limit : int;
  pause_during_cut : bool;
  window : int;
  n : int;
  queue : 'a Queue.t;
  mutable in_flight : int;
  mutable admitted : int;
  mutable rejected : int;
  mutable rr : int;  (* rotation cursor for master placement *)
}

let create ?(policy = Partition_aware) ?(queue_limit = max_int)
    ?(pause_during_cut = false) ~window ~n () =
  if window < 1 then invalid_arg "Scheduler.create: window must be positive";
  if n < 2 then invalid_arg "Scheduler.create: need at least two sites";
  {
    policy;
    queue_limit;
    pause_during_cut;
    window;
    n;
    queue = Queue.create ();
    in_flight = 0;
    admitted = 0;
    rejected = 0;
    rr = 0;
  }

let pick_master t ?(alive = fun _ -> true) ~timeline ~now () =
  let rotate candidates =
    (* Crash-stopped sites make poor coordinators; fall back to the
       unfiltered list only in the degenerate everyone-dead case. *)
    let candidates =
      match List.filter alive candidates with
      | [] -> candidates
      | live -> live
    in
    let choice = List.nth candidates (t.rr mod List.length candidates) in
    t.rr <- t.rr + 1;
    choice
  in
  match t.policy with
  | Fixed_master -> Site_id.master
  | Round_robin -> rotate (Site_id.all ~n:t.n)
  | Partition_aware ->
      if Partition.active_at timeline now then
        (* Only the master-side cell: a coordinator placed in G2 would
           run its whole group through termination; one in G1 keeps the
           large group coordinated and lets termination handle G2. *)
        rotate (Site_id.Set.elements (Partition.group1 timeline ~n:t.n))
      else rotate (Site_id.all ~n:t.n)

let paused t ~timeline ~now =
  t.pause_during_cut && Partition.active_at timeline now

let submit t ?alive ~timeline ~now job =
  if t.in_flight < t.window && not (paused t ~timeline ~now) then begin
    t.in_flight <- t.in_flight + 1;
    t.admitted <- t.admitted + 1;
    `Admit (pick_master t ?alive ~timeline ~now ())
  end
  else if Queue.length t.queue < t.queue_limit then begin
    Queue.add job t.queue;
    `Enqueued
  end
  else begin
    t.rejected <- t.rejected + 1;
    `Rejected
  end

let complete t =
  if t.in_flight <= 0 then invalid_arg "Scheduler.complete: nothing in flight";
  t.in_flight <- t.in_flight - 1

let next t ?alive ~timeline ~now () =
  if
    t.in_flight < t.window
    && (not (paused t ~timeline ~now))
    && not (Queue.is_empty t.queue)
  then begin
    let job = Queue.pop t.queue in
    t.in_flight <- t.in_flight + 1;
    t.admitted <- t.admitted + 1;
    Some (job, pick_master t ?alive ~timeline ~now ())
  end
  else None

let in_flight t = t.in_flight

let queued t = Queue.length t.queue

let admitted t = t.admitted

let rejected t = t.rejected

let window t = t.window
