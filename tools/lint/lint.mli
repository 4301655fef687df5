(** Lint: typedtree-based source linter behind [subscale_lint].

    Reads the .cmt artifacts dune already produces; never re-typechecks.
    Findings are {!Check.Diagnostic}s with rule ids LNT001–LNT005,
    UNT001–UNT005, ALS001–ALS004 and RAC001–RAC005 minted through
    {!Check.Rules}. *)

module Rules = Lint_rules
module Baseline = Baseline
module Hygiene = Hygiene
module Discipline = Discipline
module Dimension = Dimension
module Unit_sig = Unit_sig
module Units = Units
module Cmt_load = Cmt_load
module Callgraph = Callgraph
module Summary = Summary
module Alias = Alias
module Lockset = Lockset
module Races = Races

type file_report = { source : string; diags : Check.Diagnostic.t list }

type env
(** The shared effect engine and the lockset analysis over a set of loaded
    units: callee summaries cross unit boundaries. *)

val lint_cmt : string -> file_report option
(** Lint one .cmt file, with summaries from this unit alone.  [None] when
    the artifact holds no implementation typedtree (interfaces, packed or
    generated modules); unreadable artifacts yield a
    [lint-unreadable-cmt] warning report. *)

val lint_root : string -> file_report list
(** Lint every .cmt under a directory tree (sorted by source path), with
    one engine over the whole tree so LNT001, ALS and RAC see cross-unit
    call chains. *)

val all_diags : file_report list -> Check.Diagnostic.t list

val rules_markdown : unit -> string
(** The [--rules] markdown table (checked in as docs/lint-rules.md). *)
