(** A fixed-size pool of OCaml 5 domains with a deterministic,
    order-preserving [map].

    Scheduling is self-service over a shared bag: each call to [map]
    publishes one job; every worker — and the calling domain itself —
    repeatedly steals the next unclaimed index with a single atomic
    fetch-and-add and writes its result into a dedicated slot.  Because
    every item owns a slot, the output order is the input order no matter
    which domain ran what, and a run with N domains is observationally
    identical to [List.map]. *)

type t

val create : domains:int -> t
(** [domains] total lanes; the caller participates in every [map], so
    only [domains - 1] worker domains are spawned ([~domains:1] spawns
    none: the pool degenerates to a pure-sequential [List.map]).  Each
    worker runs on a minor heap of {!task_minor_heap_words}, sized for
    one task's temporaries; the calling domain's heap keeps its size. *)

val task_minor_heap_words : int
(** 32k words (256 KB): the minor heap of a domain that only ever holds
    one task's temporaries — a pool worker, and the serve daemon's loop. *)

val domains : t -> int
val spawned : t -> int

val map : ?order:int array -> t -> 'a list -> ('a -> 'b) -> 'b list
(** Parallel map preserving input order.  A raising task stops the
    distribution of further indices, every already-claimed item still
    completes, and the exception of the lowest raising index is
    re-raised; the pool survives for the next [map].

    [order], a permutation of [0 .. n-1], makes the claim of slot [i]
    execute item [order.(i)] instead — the schedule-perturbation audit's
    lever.  Results still land in per-item slots, so the output is
    identical for every permutation. *)

val shutdown : t -> unit
(** Join all workers.  Idempotent; a [map] on a shut-down pool raises. *)
