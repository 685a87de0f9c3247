(** The protocol registry: the single place a commit-protocol family is
    registered.  [tp_sim]'s [--protocol] enums, [tp_sim list], and the
    bench head-to-heads all consume this table, so adding a family is a
    one-line registration instead of four string matches. *)

type entry = {
  name : string;  (** the CLI name, e.g. ["paxos"] *)
  summary : string;  (** one-line description for [tp_sim list] *)
  protocol : Site.packed;
}

val all : entry list

val enum : (string * Site.packed) list
(** In registration order, ready for [Cmdliner.Arg.enum]. *)

val find : string -> entry option
