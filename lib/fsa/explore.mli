(** Global-state reachability for a protocol FSA.

    A global state is the paper's pair: the global state vector (one
    local state per site) plus the outstanding messages in the network.
    We additionally track which sites have voted yes, to support the
    committable/noncommittable classification.

    Exploration is over {e failure-free} executions (every message is
    eventually deliverable, sites never fail): this is exactly the
    execution set over which the paper defines concurrency sets. *)

type global = {
  locals : string array;  (** [locals.(i-1)] is the local state of site i. *)
  inflight : (int * int * string) list;
      (** Outstanding messages [(src, dst, tag)], kept sorted (canonical). *)
  voted : bool array;  (** [voted.(i-1)]: site i has voted yes. *)
  started : bool;  (** The master has received the user's request. *)
}

val reachable : ?max_states:int -> Machine.t -> n:int -> global list
(** Breadth-first closure from the initial global state (every site in
    its initial state, nothing in flight).  [n >= 2].  @raise Failure if
    more than [max_states] (default 200_000) distinct global states
    appear — commit protocols are tiny; blowing the bound indicates a
    modelling bug, not a big protocol. *)

val is_terminal : Machine.t -> global -> bool
(** Every site is in a final (commit/abort) state. *)

val all_voted : global -> bool
