(** LNT001 and ALS001-004 — parallel-closure purity and buffer ownership,
    judged over the shared {!Summary} engine.

    One walk per literal closure passed to [Exec.map]/[map2]/[mapi]/
    [map_array]/[Pool.map] picks the rule:
    - LNT001 (error): the closure captures a ref/Hashtbl/Buffer/Queue/
      Stack or flat buffer (even read-only), or writes a container, array
      or record field rooted outside it — or with no root at all.  State
      reached through [Exec.Memo]/[Obs] is sanctioned; [Atomic.t] is
      exempt;
    - ALS001 (error): it mutates a flat buffer reachable only indirectly
      from a capture (a record field, through resolved helpers);
    - ALS002 (error): it reenters the solver with captured scratch — or,
      anywhere, scratch escapes into long-lived state;
    - ALS003 (error): a call's mutated (output) buffer argument aliases
      another argument of the same call;
    - ALS004 (warning): a function returns a buffer it also retains;
      [@owned] on the binding asserts deliberate sharing.

    Unresolved roots and callees never fire ALS; LNT001 convicts a
    mutation it cannot root (sound but conservative, see DESIGN.md). *)

val check : Summary.env -> source:string -> Check.Diagnostic.t list
(** All LNT001 and ALS findings for the definitions and top-level code
    recorded from [source]. *)
