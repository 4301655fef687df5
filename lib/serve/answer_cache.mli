(** The daemon's first tier: answer bodies ({!Protocol.ok_body}) keyed by
    the request that produced them, in front of the memo tables.

    Keys compare bit for bit: two requests share an entry only if every
    float field has the same IEEE-754 bits, so [-0.0] and [0.0], or two
    values one ulp apart, never do.  A body is kept on its request's
    second answer: the first only records a sighting of the request, so a
    request asked once leaves no body behind.  The table counts its bytes
    against a budget fixed at creation, a body by its length and a
    sighting as 192 bytes (about the memory an [idvg] request and its
    table slot take); an [add] that would go over the budget
    clears the table first.  A table is not thread-safe: the select loop
    alone uses it. *)

type t

val create : budget:int -> t
(** An empty table that holds at most [budget] bytes of bodies and
    sightings. *)

val find : t -> Protocol.request -> string option
(** The body kept for the request, if any; a sighting is not a body. *)

val add : t -> Protocol.request -> string -> unit
(** [add t req body] records [req]'s answer.  The first [add] of a request
    records a sighting, the second keeps [body]; a request that already
    has a body keeps it.  A body alone over the budget is neither kept nor
    sighted.  What does not fit beside the rest clears the table first. *)
