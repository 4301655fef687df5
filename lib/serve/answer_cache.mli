(** The daemon's first tier: answer bodies ({!Protocol.ok_body}) keyed by
    the request that produced them, in front of the memo tables.

    Keys compare bit for bit: two requests share an entry only if every
    float field has the same IEEE-754 bits, so [-0.0] and [0.0], or two
    values one ulp apart, never do.  The table counts the bytes of its
    bodies against a budget fixed at creation; an [add] that would go over
    it clears the table first.  A table is not thread-safe: the select
    loop alone uses it. *)

type t

val create : budget:int -> t
(** An empty table that holds at most [budget] bytes of bodies. *)

val find : t -> Protocol.request -> string option

val add : t -> Protocol.request -> string -> unit
(** [add t req body] keeps [body] for [req], unless [req] already has an
    entry or [body] alone is over the budget.  A body that does not fit
    beside the others clears the table first. *)
