(** Network partitioning (paper, Section 2 and Fig. 4).

    A {e simple} partition splits the sites into exactly two groups, G1
    and G2, with no communication across the boundary B; the paper fixes
    G1 to be the group containing the master.  A {e multiple} partition
    (more than two groups) is also representable — the paper proves no
    commit protocol is resilient to it, and the multi-partition bench
    demonstrates that on the termination protocol.

    A partition may be {e static} (never heals within the run) or
    {e transient} (Section 6: the network recovers before all affected
    transactions terminate). *)

type t

val make :
  ?heals_at:Vtime.t ->
  group2:Site_id.Set.t ->
  starts_at:Vtime.t ->
  n:int ->
  unit ->
  t
(** [make ~group2 ~starts_at ~n ()] is the {e simple} partition with
    [G2 = group2] and [G1 = all \ group2], active from [starts_at]
    (inclusive) until [heals_at] (exclusive; default: never).

    @raise Invalid_argument if [group2] is empty, contains the master,
    contains a site outside 1..n, covers all sites, or if
    [heals_at <= starts_at].  (The master is in G1 by the paper's naming
    convention; a "partition" separating nobody is not a partition.) *)

val make_multiple :
  ?heals_at:Vtime.t ->
  groups:Site_id.Set.t list ->
  starts_at:Vtime.t ->
  n:int ->
  unit ->
  t
(** [make_multiple ~groups ...] splits the sites into the given cells
    (two or more, mutually disjoint, jointly covering 1..n, none
    empty).  The cell containing the master plays the role of G1.

    @raise Invalid_argument if the cells are not a partition of 1..n or
    there are fewer than two. *)

val none : t
(** The never-partitioned network. *)

val sequence : t list -> t
(** Chains partitions in time: each phase must heal before the next
    starts.  Used to test the paper's assumption 2 ("there is no
    subsequent network partitioning before all the transactions
    affected by the previous partitioning have terminated") by breaking
    it: a second cut arriving mid-termination.

    @raise Invalid_argument if windows overlap or a never-healing phase
    precedes another. *)

val phase_count : t -> int
(** Number of chained phases; 0 for {!none}. *)

val groups : t -> Site_id.Set.t list
(** The cells of the {e first} phase, master's first; [[]] for
    {!none}. *)

val group_count : t -> int
(** 0 for {!none}. *)

val is_simple : t -> bool
(** Exactly two cells and at most one phase. *)

val group2 : t -> Site_id.Set.t
(** Every site outside the master's cell of the first phase (for a
    simple partition, G2; empty for {!none}). *)

val group1 : t -> n:int -> Site_id.Set.t
(** The master's cell ([1..n] for {!none}). *)

val starts_at : t -> Vtime.t
(** First phase's onset; {!Vtime.infinity} for {!none}. *)

val heals_at : t -> Vtime.t option
(** Last phase's heal. *)

val is_transient : t -> bool

val active_at : t -> Vtime.t -> bool
(** Is the boundary up at this instant? *)

val components_at : t -> at:Vtime.t -> int
(** Number of connected components of the network at [at]: 1 while no
    phase is active, else the active phase's cell count.  The
    partition-component gauge sampled at telemetry cuts. *)

val separated : t -> at:Vtime.t -> Site_id.t -> Site_id.t -> bool
(** [separated p ~at a b]: are [a] and [b] in different cells of an
    active partition at time [at]?  Every message arrival asks this, so
    it costs a walk of the phases to the active one and two array reads
    there, in the site-to-cell map that {!make} or {!make_multiple}
    built for that phase. *)

val side : t -> Site_id.t -> [ `G1 | `G2 ]
(** Which side of the master a site is on while the partition is active
    ([`G2] = not in the master's cell). *)

val pp : Format.formatter -> t -> unit
