(** RAC001-005 — the race/deadlock/lock-discipline pass.

    Consumes {!Lockset} events over the whole callgraph:

    - {b RAC001} (error): shared mutable state (a mutable field or module
      container living next to a mutex) reachable from a domain-crossing
      closure, accessed with an inconsistent lockset and not [Atomic.t];
    - {b RAC002} (error): a critical section that can raise between
      [Mutex.lock] and [Mutex.unlock] without [Fun.protect]/[Mutex.protect];
    - {b RAC003} (error): self-deadlock (re-acquiring a held non-reentrant
      stdlib mutex, directly or through a resolved call) and lock-order
      inversion across the program;
    - {b RAC004} (warning): torn atomic read-modify-write —
      [Atomic.set a (f (Atomic.get a))] where [fetch_and_add] /
      [compare_and_set] is required;
    - {b RAC005} (warning): a blocking syscall while holding a lock,
      [[@blocking_ok]] opting a binding out. *)

type t

val analyze : Summary.env -> t
(** Run the lockset walk over every definition and resolve the global
    verdicts (RAC001 lockset intersections, RAC003 order inversions). *)

val check : t -> source:string -> Check.Diagnostic.t list
(** Diagnostics attributed to one source file, deduplicated per site. *)
