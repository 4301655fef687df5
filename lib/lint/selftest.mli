(** The linter's own test: crafted sources compiled at runtime (ocamlc
    -bin-annot into a temp dir) must each fire exactly their LNT/UNT/ALS/
    RAC rule, the near-misses must stay clean, and the rule registry and
    unit signature table must be collision-free and well-formed. *)

type result = { name : string; ok : bool; detail : string }

val run : lint:(Cmt_load.unit_info -> Check.Diagnostic.t list) -> result list
(** Run every case through [lint] (the full pass list, {!Lint.selftest}). *)
