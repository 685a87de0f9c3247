(** One-shot parallel folds over independent runs.

    The repository's experiments are embarrassingly parallel: a sweep is
    thousands of independent simulator runs folded into one summary, a
    cluster sweep is dozens of independent runtimes, and a soak is a
    sequence of independent epochs.  A fold parallelises {e across}
    runs — each run still owns one engine and one virtual clock — and
    recovers the sequential answer exactly, provided [merge] is
    associative: items are folded left to right {e within} each chunk
    and the partials are merged left to right {e across} chunks, so the
    result is independent of both the chunk size and the number of
    domains.

    A fold is one-shot: it spawns its workers, every executor (the
    caller is one) builds its own scratch with [init] and claims
    contiguous chunks through an atomic cursor, and the caller joins
    every worker before merging.  Nothing outlives the call, so there
    is no pool to create, reuse or shut down. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the useful parallelism cap
    on this machine, and the CLI's [--jobs] default.  {!fold} clamps
    to it: beyond it, extra domains only time-slice (and OCaml 5's
    stop-the-world minor GC makes them actively slower). *)

val fold_chunks :
  domains:int ->
  chunk:int ->
  init:(unit -> 's) ->
  f:('s -> 'a -> 'b) ->
  merge:('b -> 'b -> 'b) ->
  'a array ->
  'b
(** [fold_chunks ~domains ~chunk ~init ~f ~merge xs] is
    [merge (... (merge (f s xs.(0)) (f s xs.(1))) ...) (f s xs.(n-1))],
    computed by [domains] executors — the caller and [domains - 1]
    spawned domains — as per-chunk partial folds over contiguous chunks
    of [chunk] items, merged in chunk order.  Equal to the sequential
    fold for any [chunk] and [domains] whenever [merge] is associative
    ([merge] may consume its left argument: each partial is owned by
    exactly one executor at a time).

    Each executor calls [init] exactly once and threads its scratch
    through every [f scratch x] it claims; no scratch is visible to two
    executors.  Reuse must be observationally identical to a fresh
    [init ()] per item, or the result will depend on the chunk
    schedule.

    Exceptions are re-raised, with their backtraces, only after every
    worker has been joined: first an exception from [init] (the
    caller's, then the workers' in spawn order), else the exception of
    the lowest-indexed raising chunk.
    @raise Invalid_argument if [domains < 1], [chunk < 1] or [xs] is
    empty. *)

val fold :
  ?jobs:int ->
  init:(unit -> 's) ->
  f:('s -> 'a -> 'b) ->
  merge:('b -> 'b -> 'b) ->
  'a list ->
  'b
(** [fold ?jobs ~init ~f ~merge xs] is the same left fold over [xs] on
    [min jobs (default_jobs ())] domains ([jobs] defaults to 1).  One
    domain is a plain [List.fold_left] with one scratch, spawning
    nothing; more call {!fold_chunks} with chunks of
    [ceil (n / (4 * domains))] items — fine enough to balance uneven
    run costs, coarse enough that claiming a chunk costs nothing next
    to running it.  The result is the same for every [jobs], so it is
    purely a performance knob.
    @raise Invalid_argument if [jobs < 1] or [xs] is empty. *)
