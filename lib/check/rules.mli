(** Registry of every static-analysis rule id.

    Rule ids are the stable, grep-able contract between the checker and its
    consumers (CI greps for them, tests assert on them, reports print
    them).  Minting them through {!register} makes collisions a hard
    failure at link/initialization time instead of two rules silently
    shadowing each other in reports. *)

type entry = { id : string; summary : string }

exception Duplicate_rule of string
(** Raised by {!register} when an id is minted twice, and by {!selftest}
    if the table is ever found inconsistent. *)

val register : ?summary:string -> string -> string
(** [register ~summary id] records [id] and returns it (so rule constants
    read [let rule = Rules.register "..."]).  Raises {!Duplicate_rule} on
    collision. *)

val selftest : unit -> int
(** Re-validate the registry (uniqueness, id shape: kebab-case, [AUDnnn],
    [LNTnnn] or [UNTnnn]); returns the rule count.  Raises on any
    violation. *)
