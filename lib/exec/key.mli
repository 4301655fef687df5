(** Canonical content keys for the memo tables.

    A key is a collision-free textual encoding of a value: floats are
    rendered as the hex of their IEEE-754 bit pattern (so [0.25] and
    [0.25 +. 1e-17] produce different keys, and [-0.0] differs from
    [0.0]), and composite encodings carry field names, so two records
    that happen to hold the same floats in different fields never share
    a key.  Each writer returns one string of exactly its text's size. *)

val float : float -> string
(** Bit-exact: the hex of the IEEE-754 representation. *)

val floats : ?bracketed:bool -> float array -> string
(** The {!float}s of the array, comma-separated, between ["["] and ["]"]
    unless [~bracketed:false]. *)

val int : int -> string
val option : ('a -> string) -> 'a option -> string
val fields : string -> (string * string) list -> string
(** A named record: [fields "physical" [("lpoly", ...); ...]].  The field
    names listed here are exactly what the memo-soundness auditor
    cross-checks against traced parameter reads. *)
