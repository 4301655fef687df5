(** Registry of every static-analysis rule id.

    Rule ids are the stable, grep-able contract between the checker and its
    consumers (CI greps for them, tests assert on them, reports print
    them).  Minting them through {!register} makes collisions and
    malformed ids a hard failure at link/initialization time instead of
    two rules silently shadowing each other in reports. *)

exception Duplicate_rule of string
(** Raised by {!register} when an id is minted twice. *)

val register : ?summary:string -> string -> string
(** [register ~summary id] records [id] and returns it (so rule constants
    read [let rule = Rules.register "..."]).  [summary] documents the rule
    at its call site; the registry keeps only the id.  Raises
    {!Duplicate_rule} on collision, and [Invalid_argument] unless [id] is
    kebab-case or one of the numeric series [AUDnnn], [LNTnnn], [UNTnnn],
    [ALSnnn] or [RACnnn]. *)
