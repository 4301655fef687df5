(* subscale_lint: the typedtree source linter's command line.

   Lints the .cmt artifacts dune produces (run `dune build`, and `dune
   build @check` for the executables' trees) for purity/race, float,
   exception and output hygiene, dimensional analysis, buffer ownership
   and lockset discipline:

     dune exec tools/lint/subscale_lint.exe -- --strict
     dune exec tools/lint/subscale_lint.exe -- --root _build/default/bin \
       --baseline bin-lint.baseline --strict
     dune exec tools/lint/subscale_lint.exe -- --rules > docs/lint-rules.md

   Findings are the same structured diagnostics as `subscale check` and
   `subscale audit`: registry-minted rule ids, --strict, exit 1 on
   findings.  The linter links compiler-libs, so it is an executable of
   its own and `subscale` stays lean. *)

open Cmdliner
module Diag = Check.Diagnostic
module L = Lint

let lint_update_baseline ~baseline_path (app : L.Baseline.application) old_baseline =
  (* Keep the justification of every entry that still matches; new findings
     get a TODO note so the diff shows exactly what needs justifying. *)
  let note_of d =
    match L.Baseline.entry_of_diag d with
    | None -> None
    | Some fresh ->
      let note =
        match
          List.find_opt
            (fun (e : L.Baseline.entry) ->
              e.L.Baseline.rule = fresh.L.Baseline.rule
              && e.L.Baseline.file = fresh.L.Baseline.file
              && e.L.Baseline.line = fresh.L.Baseline.line)
            old_baseline
        with
        | Some e when e.L.Baseline.note <> "" -> e.L.Baseline.note
        | _ -> "— TODO: justify"
      in
      Some { fresh with L.Baseline.note }
  in
  let entries = List.filter_map note_of (app.L.Baseline.kept @ app.L.Baseline.suppressed) in
  let entries =
    List.sort_uniq
      (fun (a : L.Baseline.entry) b ->
        compare
          (a.L.Baseline.file, a.L.Baseline.line, a.L.Baseline.rule)
          (b.L.Baseline.file, b.L.Baseline.line, b.L.Baseline.rule))
      entries
  in
  let oc = open_out baseline_path in
  output_string oc (L.Baseline.to_string entries);
  close_out oc;
  Printf.printf "lint: wrote %d baseline entr%s to %s\n" (List.length entries)
    (if List.length entries = 1 then "y" else "ies")
    baseline_path

(* --format json: one finding per line, machine-readable, matched in CI by
   .github/lint-problem-matcher.json — keep the field order in sync. *)
let diag_json (d : Diag.t) =
  let file, line, col =
    match String.split_on_char ':' d.Diag.location with
    | [ f; l; c ] ->
      ( f,
        Option.value ~default:0 (int_of_string_opt l),
        Option.value ~default:0 (int_of_string_opt c) )
    | [ f; l ] -> (f, Option.value ~default:0 (int_of_string_opt l), 0)
    | _ -> (d.Diag.location, 0, 0)
  in
  let module J = Report.Json in
  let int n = J.Num (float_of_int n) in
  J.render
    (J.Obj
       ([ ("rule", J.Str d.Diag.rule);
          ("severity", J.Str (Diag.severity_label d.Diag.severity));
          ("file", J.Str file);
          ("line", int line);
          ("col", int col);
          ("message", J.Str d.Diag.message) ]
       @ Option.fold ~none:[] ~some:(fun h -> [ ("hint", J.Str h) ]) d.Diag.hint))

let cmd =
  let strict =
    let doc =
      "Exit non-zero on warnings, stale baseline entries, TODO-justified \
       baseline entries and advisory UNT/ALS/RAC errors too, not only LNT \
       errors."
    in
    Arg.(value & flag & info [ "strict" ] ~doc)
  in
  let format =
    let doc =
      "Output format: $(b,text) (human-readable, the default) or $(b,json) \
       (one finding per line with rule, severity, file, line, col, message — \
       consumed by the CI problem matcher)."
    in
    Arg.(value & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
         & info [ "format" ] ~docv:"FMT" ~doc)
  in
  let rules =
    let doc = "Print the rule table as markdown (the contents of docs/lint-rules.md)." in
    Arg.(value & flag & info [ "rules" ] ~doc)
  in
  let baseline_arg =
    let doc =
      "Baseline file of grandfathered findings ($(b,<rule> <file>:<line> — \
       justification) per line); missing file means an empty baseline."
    in
    Arg.(value & opt string "lint.baseline" & info [ "baseline" ] ~docv:"FILE" ~doc)
  in
  let root_arg =
    let doc =
      "Directory scanned recursively for .cmt artifacts (run $(b,dune build) \
       first; dune puts library typedtrees under _build/default/lib)."
    in
    Arg.(value & opt string "_build/default/lib" & info [ "root" ] ~docv:"DIR" ~doc)
  in
  let update =
    let doc =
      "Rewrite the baseline file from the current findings, keeping existing \
       justifications and marking new entries TODO."
    in
    Arg.(value & flag & info [ "update-baseline" ] ~doc)
  in
  let run strict format rules baseline_path root update =
    if rules then print_string (L.rules_markdown ())
    else begin
      if not (Sys.file_exists root && Sys.is_directory root) then begin
        Printf.eprintf
          "lint: %s does not exist — run `dune build` first, or point --root at \
           the directory holding the .cmt artifacts\n"
          root;
        exit 2
      end;
      let reports = L.lint_root root in
      let baseline =
        match L.Baseline.load baseline_path with
        | b -> b
        | exception L.Baseline.Malformed (line, content) ->
          Printf.eprintf "lint: malformed baseline %s:%d: %S\n" baseline_path line content;
          exit 2
      in
      let app = L.Baseline.apply baseline (L.all_diags reports) in
      if update then lint_update_baseline ~baseline_path app baseline
      else begin
        (* in json mode stdout carries only the finding lines; the human
           chrome moves to stderr so the problem matcher sees clean input *)
        let note fmt =
          match format with
          | `Text -> Printf.printf fmt
          | `Json -> Printf.eprintf fmt
        in
        note "lint: scanned %d compilation unit(s) under %s\n"
          (List.length reports) root;
        List.iter
          (fun d ->
            match format with
            | `Text -> Printf.printf "  %s\n" (Diag.to_string d)
            | `Json -> print_endline (diag_json d))
          (Diag.sort app.L.Baseline.kept);
        if app.L.Baseline.suppressed <> [] then
          note "  baseline: %d finding(s) grandfathered by %s\n"
            (List.length app.L.Baseline.suppressed)
            baseline_path;
        List.iter
          (fun (e : L.Baseline.entry) ->
            note "  stale baseline entry (fixed? remove it): %s\n"
              (L.Baseline.entry_to_string e))
          app.L.Baseline.stale;
        let todos = L.Baseline.todos baseline in
        if strict then
          List.iter
            (fun (e : L.Baseline.entry) ->
              note "  TODO justification (rejected by --strict): %s\n"
                (L.Baseline.entry_to_string e))
            todos;
        let kept = app.L.Baseline.kept in
        let _, w, _ = Diag.count kept in
        note "lint: %s\n" (Diag.summary kept);
        (* UNT dimensional, ALS ownership and RAC lockset errors are
           advisory until --strict: the passes are young and their tables
           grow with the model chain, so only the strict (CI) mode lets
           them gate. *)
        let is_advisory (d : Diag.t) =
          String.length d.Diag.rule >= 3
          && (String.sub d.Diag.rule 0 3 = "UNT" || String.sub d.Diag.rule 0 3 = "ALS"
              || String.sub d.Diag.rule 0 3 = "RAC")
        in
        let lnt_code = Diag.exit_code (List.filter (fun d -> not (is_advisory d)) kept) in
        exit
          (if lnt_code <> 0 then lnt_code
           else if
             strict
             && (Diag.has_errors kept || w > 0 || app.L.Baseline.stale <> []
                || todos <> [])
           then 1
           else 0)
      end
    end
  in
  let doc =
    "Typedtree source linter: purity/race, float, exception and output \
     hygiene, and dimensional analysis"
  in
  let man =
    [ `S Manpage.s_description;
      `P "Walks the .cmt typedtrees dune already produced (no re-typechecking) \
          and reports: closures entering the domain-parallel engine that touch \
          unsanctioned mutable state (LNT001), polymorphic equality on floats \
          (LNT002), exception-swallowing catch-alls (LNT003), diagnostic rule \
          ids minted outside Check.Rules (LNT004), direct printing in \
          library code (LNT005) and polymorphic orderings instantiated at a \
          type variable, which box every float they read (LNT006).";
      `P "The UNT series infers physical dimensions for float expressions \
          from a signature table over Physics.Constants/Silicon/Mobility, the \
          parameter records and the Tcad accessors: incompatible additive \
          combinations (UNT001), dimensioned transcendental arguments \
          (UNT002), display/SI unit mixes (UNT003), arguments contradicting \
          the table (UNT004) and dimensions lost through container \
          round-trips (UNT005, info).  Unknown dimensions never fire; \
          $(b,[@units \"V/dec\"]) asserts a deliberate cast.";
      `P "LNT001 and the ALS and RAC series share one interprocedural effect \
          engine over the whole $(b,--root) tree: one summary per function \
          (which parameters are mutated, stored or returned; may it raise, \
          may it block, which locks it acquires), computed to one fixpoint \
          over the call graph.  The ALS series checks buffer ownership on \
          the Bigarray hot path: parallel closures mutating buffers reachable \
          from captures (ALS001), solver scratch escaping or shared by \
          overlapping solves (ALS002), output buffers aliasing inputs \
          (ALS003) and returned buffers that are also retained (ALS004, \
          $(b,[@owned]) to assert).";
      `P "The RAC series adds a held-lockset walk of every body and \
          domain-crossing reachability from Exec.map/Pool.map/Domain.spawn \
          closures: shared state with an inconsistent lockset (RAC001), \
          exception-unsafe critical sections (RAC002), self-deadlock and \
          lock-order inversion (RAC003), torn atomic read-modify-writes \
          (RAC004) and blocking syscalls under a lock (RAC005, \
          $(b,[@blocking_ok]) to assert).  Every pass always runs.";
      `P "Exit code 0 when no non-baselined LNT errors were found (warnings \
          and advisory UNT/ALS/RAC errors allowed unless $(b,--strict)), 1 \
          otherwise.  Like $(b,subscale check) and $(b,subscale audit), \
          findings are structured diagnostics with registry-minted rule \
          ids; $(b,--format json) emits one finding per line for the CI \
          problem matcher." ]
  in
  Cmd.v (Cmd.info "subscale_lint" ~doc ~man)
    Term.(const run $ strict $ format $ rules $ baseline_arg $ root_arg $ update)

let () = exit (Cmd.eval cmd)
