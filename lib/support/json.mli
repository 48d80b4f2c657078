(** Minimal JSON: a value type, a strict recursive-descent parser and a
    compact printer.

    Just enough for the repo's persistence formats (the service-layer
    mapping cache) without an external dependency. Numbers are OCaml
    floats printed with ["%.17g"], so every double — periods included —
    round-trips bitwise. The parser rejects trailing garbage and deeply
    nested input instead of overflowing the stack; it accepts the JSON
    this printer emits plus arbitrary standard JSON (escapes, unicode
    [\uXXXX] folded to UTF-8). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** [Error msg] carries a byte offset and a reason; never raises. *)

val to_string : t -> string
(** Compact (no whitespace) rendering with proper string escaping.
    Non-finite numbers render as [null] (JSON has no inf/nan token);
    callers that must round-trip them exactly should box hex-float
    strings ([Printf "%h"]) instead. *)

val escape_string : Buffer.t -> string -> unit
(** Append the string as a quoted JSON string literal: double quote and
    backslash escaped with a backslash, newline, CR and tab as their
    two-character escapes, other control bytes as six-character
    [\u00XX] escapes, every other byte verbatim. The one JSON string
    escaper of the codebase. *)

(** {1 Accessors} — shallow, [None] on shape mismatch. *)

val member : string -> t -> t option
(** First binding of the key in an object. *)

val to_float : t -> float option
val to_int : t -> int option
val to_bool : t -> bool option
val to_str : t -> string option
val to_list : t -> t list option
