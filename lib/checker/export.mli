(** JSON export of checker results, for CI pipelines and notebooks.

    A tiny self-contained encoder (no external JSON dependency — the
    container is sealed) plus encoders for the checker's result types.
    Output is deterministic: object fields appear in the order listed
    here, so exported files diff cleanly across runs. *)

(** A minimal JSON document. *)
type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list

val to_string : json -> string
(** Compact, valid JSON (strings escaped per RFC 8259). *)

val pp : Format.formatter -> json -> unit

val of_string : string -> (json, string) result
(** Parses the dialect {!to_string} emits (plus insignificant
    whitespace): [Ok] round-trips our own output exactly — integer
    literals come back as [Int], fractional ones as [Float] — and
    [Error] carries a message with the byte offset.  Used by the CLI to
    re-read telemetry snapshot streams. *)

val member : string -> json -> json option
(** [member key json] is the value bound to [key] when [json] is an
    object containing it. *)

val of_verdict : Verdict.t -> json

val of_summary : Sweep.summary -> json
(** Includes the failure-example grid points as {!Scenario.config_id}
    strings. *)

val of_stats : Stats.t -> json
