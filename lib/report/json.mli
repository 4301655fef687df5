(** Dependency-free JSON subset: the value type, a recursive-descent
    parser and a compact renderer for the serving protocol
    ([Serve.Protocol]) and the benchmark's documents.

    The subset is exactly what those schemas contain — objects, arrays,
    strings, finite numbers, booleans and null.  Non-finite floats cannot
    be represented in JSON; {!render} emits them as [null], so writers
    that must round-trip NaN payloads encode the bits themselves (the
    persistent store does). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Bad of string
(** Raised by {!parse_exn} and the typed accessors, with a
    human-readable reason. *)

val parse : string -> (t, string) result
(** Parse one complete document; trailing garbage is an error. *)

val parse_exn : string -> t
(** As {!parse}, raising {!Bad}. *)

val render : t -> string
(** Compact single-line rendering.  Finite numbers round-trip: integral
    values print without a fraction, everything else with 17 significant
    digits (enough to recover the exact IEEE-754 double). *)

(** {2 Typed accessors}

    Each takes a [what] label used in the {!Bad} message, so schema
    errors name the field that failed. *)

val member : string -> t -> t option
(** [member name (Obj ...)] is the field's value, [None] when absent or
    when the value is not an object. *)

val field : string -> t -> t
(** As {!member}, raising {!Bad} when missing. *)

val as_string : string -> t -> string
val as_number : string -> t -> float
val as_int : string -> t -> int
val as_list : string -> t -> t list
