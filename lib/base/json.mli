(** The repository's one JSON codec.

    The repository deliberately carries no third-party JSON dependency, and
    this module is the only code that escapes, prints or scans JSON: serve
    requests and replies, session and scheduler telemetry, checkpoint
    manifests, fuzz summaries, frontend diagnostics and bench artifacts all
    go through it.  It is the smallest strict reader/printer that covers
    those: objects, arrays, strings (with escapes), numbers, booleans and
    null.  Parse errors carry the byte offset at which parsing failed,
    which the serve protocol turns into a positioned error reply. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val int : int -> t
(** [Num] of an integer. *)

val parse : string -> (t, int * string) result
(** Strict parse of exactly one JSON value (surrounding whitespace
    allowed; trailing garbage is an error).  [Error (pos, msg)] gives the
    0-based byte offset of the failure. *)

val to_string : t -> string
(** One line, no newlines: control characters in strings are escaped, so
    the result is safe for a newline-delimited protocol.  Integral numbers
    below 1e15 print without a fraction; other finite numbers print in the
    shortest of [%.15g] / [%.17g] that reads back to the same float, so
    [parse (to_string (Num f)) = Ok (Num f)]; NaN and infinities, which
    JSON cannot represent, print as [null]. *)

(** {2 Accessors} — all total, returning [None] on shape mismatch. *)

val member : string -> t -> t option
(** Field lookup; [None] on missing field {e or} non-object. *)

val to_str : t -> string option
val to_num : t -> float option
val to_int : t -> int option
(** Integral numbers within the native [int] range. *)

val to_bool : t -> bool option
val to_list : t -> t list option

val mem_str : string -> t -> string option
val mem_int : string -> t -> int option
val mem_num : string -> t -> float option
val mem_bool : string -> t -> bool option
