(** Content-addressed memoization with hit/miss accounting.

    A table maps a canonical key (built with {!Key}) to a computed value.
    Tables are safe to query from any domain: lookups and insertions hold
    a per-table mutex, but the user computation runs outside it, so two
    domains that miss the same key concurrently both compute — the first
    insertion wins and, because memoized functions must be pure, the
    values are identical, so results stay deterministic either way. *)

type 'a t

type stats = {
  name : string;
  hits : int;  (** in-memory hits *)
  misses : int;  (** full misses: computed *)
  size : int;
  store_hits : int;  (** answered from the persistent tier *)
}
(** Per-lookup accounting: every {!find} hit lands in [hits] or
    [store_hits], every {!compute} in [misses]; a {!find} miss counts
    nothing.  A [find_or_compute] call therefore lands in exactly one of
    the three. *)

val create : name:string -> unit -> 'a t
(** A fresh table, registered process-wide for {!clear_all} / {!stats}.
    The registry is keyed by [name]: re-creating a table replaces the
    previous entry, so dropped tables are not pinned by their
    registered closures and [stats ()] reports one row per name. *)

val find : 'a t -> key:string -> 'a option
(** The cached value for [key] — from memory, else from the attached
    persistent tier (which then also fills memory) — or [None].  Never
    computes, so it is cheap enough for a daemon's select loop. *)

val compute : 'a t -> key:string -> (unit -> 'a) -> 'a
(** The step after a {!find} miss: count the miss, run the thunk outside
    the table lock, cache its result (and write it behind) and return it.
    It does not consult the store again. *)

val find_or_compute : 'a t -> key:string -> (unit -> 'a) -> 'a
(** {!find}, then {!compute} on a miss.  Under {!with_audit} a hit also
    reruns the thunk as a shadow recompute. *)

val hits : 'a t -> int
val misses : 'a t -> int

val store_hits : 'a t -> int
(** Lookups answered by the persistent tier (a memory miss that the
    store satisfied). *)

val size : 'a t -> int
val clear : 'a t -> unit

val clear_all : unit -> unit
(** Reset every registered table in the process (test/bench isolation). *)

val stats : unit -> stats list
(** Per-table counters, sorted by table name; one row per registered
    name. *)

val registry_size : unit -> int
(** Number of registered tables (daemon leak check). *)

(** {2 Persistent tier}

    A table may be backed by an on-disk {!Store}: memo misses consult
    the store before computing, and computed values are written behind.
    The store handle's lifetime stays with the caller — detach (or
    {!Store.close}) when done. *)

val attach_store : 'a t -> store:Store.t -> codec:'a Store.codec -> unit
val detach_store : 'a t -> unit

(** {2 Scoped bypass} *)

val disabled : (unit -> 'a) -> 'a
(** Run with all memoization off: [find_or_compute] neither reads nor
    writes any table ({!find} is [None], {!compute} just runs the
    thunk).  Used by benches that must time the raw solve. *)

val enabled : unit -> bool

(** {2 Audit mode}

    With auditing on, every cache {e hit} triggers a shadow recompute:
    the memoized thunk runs again and its fresh value is compared against
    the cached one via the polymorphic total order (so NaN payloads
    compare equal to themselves; values holding closures count as
    equal).  A mismatch means the key failed to capture an input the
    computation depends on — the stale-cache hazard the memo pass of
    [subscale audit] reports as AUD012.  The cached value is still
    returned, so behaviour under audit differs only in time. *)

val with_audit : (unit -> 'a) -> 'a
(** Run with auditing on, restoring it to off afterwards. *)

val audit_violations : unit -> (string * string) list
(** [(table name, key)] of every shadow-recompute mismatch recorded since
    the last {!clear_audit_violations}, in detection order.  Bounded: at
    most 256 entries are kept; later mismatches are dropped. *)

val clear_audit_violations : unit -> unit
(** Empty the violation list. *)
