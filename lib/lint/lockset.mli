(** The held-lockset walk behind the RAC race/deadlock pass.

    Reads the {!Summary} engine (contexts, lock identity, may-raise /
    may-block / locks-acquired summaries), computes which definitions are
    reachable from a domain-crossing closure, and walks every definition
    body with a path-sensitive *held lockset* — which mutexes are held,
    and whether each is exception-protected — emitting typed events the
    {!Races} pass turns into RAC001-005 diagnostics.

    Polarity differs deliberately from UNT/ALS: an *unresolved* call made
    while a lock is held counts as "may raise" (RAC002 evidence).
    Everything else keeps the conservative "unknown never fires"
    contract: unknown lock identities are not tracked, unknown aliasing
    convicts nothing. *)

type hlock = { h_lock : Summary.lock; h_protected : bool }
(** A held lock; [h_protected] when its release is guaranteed on raise
    ([Mutex.protect] or [Fun.protect ~finally] unlocking it). *)

type guard =
  | Same_instance of string
      (** held lock rooted at the same value as the accessed state *)
  | Module_lock of string  (** held module-level lock *)

type access_kind = Read | Write | Use
(** [Use]: a mutable-container operation (counts as a write for
    conviction — consistency is the question, not direction). *)

type event =
  | Reacquire of { lock : Summary.lock; site : Location.t }
      (** acquiring a mutex provably already held: self-deadlock *)
  | Raise_evidence of { op : string; site : Location.t; locks : Summary.lock list }
      (** a may-raise operation while holding unprotected [locks] *)
  | Block_evidence of { op : string; site : Location.t; locks : Summary.lock list }
      (** a blocking operation while holding [locks] *)
  | Order_edge of { held_cls : string; acq_cls : string; site : Location.t }
  | Access of {
      cls : string;          (** "Store.t.closed", "Memo.registry" *)
      kind : access_kind;
      guards : guard list;   (** locks held at the access, instance-correlated *)
      crossing : bool;       (** site runs under another domain *)
      fresh : bool;          (** receiver built in this def (init phase) *)
      site : Location.t;
      descr : string;
    }
  | Torn_rmw of { name : string; site : Location.t }
      (** [Atomic.set a (f (Atomic.get a))]: lost-update window *)
  | Mod_lock_seen of string
      (** a module-level lock class exists (gates RAC001 on globals) *)

type t

val analyze : Summary.env -> t
(** The domain-crossing reachability set, seeded at
    [Exec.map*]/[Pool.map]/[Domain.spawn] call sites. *)

val walk_def : t -> Callgraph.def -> emit:(event -> unit) -> unit
(** Walk one definition with the held-lockset abstract interpretation,
    emitting events.  Branch joins keep a lock held only when every
    non-diverging branch holds it; nested let-bound functions are inlined
    (cycle-broken) so helpers like a worker's [await] loop stay precise. *)
