let default_jobs () = Domain.recommended_domain_count ()

(* No mutex and no condition: the cursor is the only shared mutable
   state while executors run, each chunk slot has exactly one writer,
   and [Domain.join] orders every worker's slot writes before the
   caller reads them. *)
let fold_chunks ~domains ~chunk ~init ~f ~merge xs =
  if domains < 1 then invalid_arg "Pool.fold_chunks: domains must be >= 1";
  if chunk < 1 then invalid_arg "Pool.fold_chunks: chunk must be >= 1";
  let n = Array.length xs in
  if n = 0 then invalid_arg "Pool.fold_chunks: empty input";
  let nchunks = (n + chunk - 1) / chunk in
  let slots = Array.make nchunks None in
  let cursor = Atomic.make 0 in
  let fold_chunk scratch c =
    let lo = c * chunk in
    let acc = ref (f scratch xs.(lo)) in
    for i = lo + 1 to Stdlib.min n (lo + chunk) - 1 do
      acc := merge !acc (f scratch xs.(i))
    done;
    !acc
  in
  (* A raising chunk parks its exception in its slot and the executor
     claims the next chunk; a raising [init] ends only its own executor,
     whose share the others claim. *)
  let execute () =
    match init () with
    | exception e -> Some (e, Printexc.get_raw_backtrace ())
    | scratch ->
        let c = ref (Atomic.fetch_and_add cursor 1) in
        while !c < nchunks do
          slots.(!c) <-
            Some
              (match fold_chunk scratch !c with
              | partial -> Ok partial
              | exception e -> Error (e, Printexc.get_raw_backtrace ()));
          c := Atomic.fetch_and_add cursor 1
        done;
        None
  in
  let workers = List.init (domains - 1) (fun _ -> Domain.spawn execute) in
  let caller = execute () in
  let init_failures =
    List.filter_map Fun.id (caller :: List.map Domain.join workers)
  in
  let chunk_failure =
    Array.find_map (function Some (Error e) -> Some e | _ -> None) slots
  in
  (match (init_failures, chunk_failure) with
  | (e, bt) :: _, _ | [], Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | [], None -> ());
  (* Every chunk was claimed: at least one executor got past [init]. *)
  let partial c = match slots.(c) with Some (Ok p) -> p | _ -> assert false in
  let total = ref (partial 0) in
  for c = 1 to nchunks - 1 do
    total := merge !total (partial c)
  done;
  !total

let fold ?(jobs = 1) ~init ~f ~merge xs =
  if jobs < 1 then invalid_arg "Pool.fold: jobs must be >= 1";
  let domains = Stdlib.min jobs (default_jobs ()) in
  match xs with
  | [] -> invalid_arg "Pool.fold: empty input"
  | x :: rest when domains = 1 ->
      let scratch = init () in
      List.fold_left (fun acc x -> merge acc (f scratch x)) (f scratch x) rest
  | xs ->
      let xs = Array.of_list xs in
      let chunk = (Array.length xs + (4 * domains) - 1) / (4 * domains) in
      fold_chunks ~domains ~chunk ~init ~f ~merge xs
