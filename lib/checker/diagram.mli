(** ASCII message-sequence diagrams — the paper's Figs. 5–9, generated
    from actual runs.

    One column per site, time flowing downward; each row is an event:
    a delivery (solid arrow), an undeliverable message returning to its
    sender (dashed arrow, labelled [UD(tag)]), a loss, a site decision,
    or the partition going up / healing.  The renderer is deterministic,
    so diagrams are stable artefacts for documentation and tests.

    {v
    t=2000      |------prepare----------------->|
    t=3100      |  == partition {site3} ==      |
    t=4000      |<~~~~~~UD(prepare)~~~~~~~~~~~~~|
    v} *)

val run :
  ?width:int -> Site.packed -> Runner.config -> string
(** Runs the scenario once with a tap and renders the diagram.
    [width] is the lane width in characters (default 22; minimum 12). *)

(** The assembled timeline, for custom rendering or tests. *)
type event =
  | Message of {
      at : Vtime.t;
      src : Site_id.t;
      dst : Site_id.t;
      label : string;
      kind : [ `Delivered | `Bounced | `Lost ];
    }
  | Decision of { at : Vtime.t; site : Site_id.t; label : string }
  | Boundary of { at : Vtime.t; label : string }

val collect :
  Site.packed -> Runner.config -> event list * Runner.result
(** The chronological event list a run produces (network fates from a
    tap, decisions from the result, partition boundaries from the
    config). *)
