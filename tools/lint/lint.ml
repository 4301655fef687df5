(** Lint: the typedtree-based source linter behind [subscale_lint].

    Driven entirely by the .cmt artifacts dune already produces (compiler
    -bin-annot output) — no re-typechecking, `dune build` is the only
    prerequisite.  Rule families:

    - {!Hygiene} — LNT002 float discipline, LNT003 exception hygiene,
      LNT005 output hygiene;
    - {!Discipline} — LNT004: rule ids minted via [Check.Rules] only;
    - {!Units} — UNT001-005: static dimensional analysis over the Eq. 1-8
      model chain, seeded from the {!Unit_sig} tables;
    - {!Alias} — LNT001 and ALS001-004: closures entering the
      domain-parallel engine must not capture or mutate unsanctioned
      mutable state, and solver buffers keep one owner;
    - {!Races} — RAC001-005: interprocedural lockset & domain-safety
      analysis.

    LNT001, ALS and RAC read one shared {!Summary} effect engine: one
    context per {!Callgraph} definition, one summary record, one
    fixpoint.  Every pass always runs.

    Findings are {!Check.Diagnostic}s, so reports and exit codes behave
    exactly like [subscale check]/[audit]; deliberate keeps live in the
    checked-in {!Baseline} file with a justification. *)

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

module D = Check.Diagnostic

type file_report = { source : string; diags : D.t list }

(* The sanctioned output layers: LNT005 does not apply to the modules whose
   whole job is producing output.  bin/ and the linter's own command line
   are entry points — the rule's own scope is "lib/ never prints
   directly". *)
let output_exempt_dirs =
  [ "lib/report/"; "lib/obs/"; "bin/"; "tools/lint/subscale_lint.ml" ]

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let exempt_output source =
  List.exists (fun prefix -> starts_with ~prefix source) output_exempt_dirs

(* The LNT001, ALS and RAC passes read whole-tree context: summaries of
   callees live in other units.  [analyze] runs the shared effect engine
   once per root (or once per single unit for lint_cmt). *)
type env = { summary : Summary.env; races : Races.t }

let analyze units =
  let summary = Summary.compute (Callgraph.build units) in
  { summary; races = Races.analyze summary }

(* Every pass, in one place. *)
let lint_unit env (u : Cmt_load.unit_info) : file_report =
  let source = u.Cmt_load.source and str = u.Cmt_load.structure in
  { source;
    diags =
      D.sort
        (Hygiene.check ~source ~exempt_output:(exempt_output source) str
         @ Discipline.check ~source str
         @ Units.check ~source str
         @ Alias.check env.summary ~source
         @ Races.check env.races ~source) }

let unreadable_report (p, msg) =
  { source = p;
    diags =
      [ D.warning ~rule:Lint_rules.unreadable_cmt ~location:p
          (Printf.sprintf "unreadable .cmt artifact: %s" msg)
          ~hint:"stale build? re-run `dune build` and lint again" ] }

let lint_cmt path =
  match Cmt_load.load path with
  | Cmt_load.Unit u -> Some (lint_unit (analyze [ u ]) u)
  | Cmt_load.Skipped -> None
  | Cmt_load.Unreadable (p, msg) -> Some (unreadable_report (p, msg))

let lint_root root =
  let units, unreadable = Cmt_load.load_root root in
  let env = analyze units in
  List.map (lint_unit env) units @ List.map unreadable_report unreadable

let all_diags reports = List.concat_map (fun r -> r.diags) reports

let rules_markdown = Lint_rules.markdown
