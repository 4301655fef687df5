(* tools/lint: the fixture corpus (per LNT/UNT/ALS/RAC rule a firing source
   and a near miss, compiled to .cmt by the lint_fixtures library in
   fixtures/lint/dune), .cmt discovery across dune contexts, baseline
   round-trips, and the rule-registry integration. *)

open Subscale
module Diag = Check.Diagnostic
module B = Lint.Baseline
module LR = Lint.Rules

let u = Test_util.case

let fixture_dir = "fixtures/lint"

let cmt_dir = Filename.concat fixture_dir ".lint_fixtures.objs/byte"

(* Every fixture source, sorted: one test case each.  Run from anywhere
   but test/, there are none, which the lint_root case below reports. *)
let fixtures =
  match Sys.readdir fixture_dir with
  | exception Sys_error _ -> []
  | entries ->
    Array.to_list entries
    |> List.filter (fun f -> Filename.check_suffix f ".ml")
    |> List.map Filename.remove_extension
    |> List.sort String.compare

let fixture_diags base =
  let path = Filename.concat cmt_dir (base ^ ".cmt") in
  match Lint.lint_cmt path with
  | Some r -> r.Lint.diags
  | None -> Alcotest.failf "%s: no implementation typedtree" path

(* A fixture's first line is a one-line comment naming its test case. *)
let title base =
  let first =
    In_channel.with_open_bin
      (Filename.concat fixture_dir (base ^ ".ml"))
      In_channel.input_line
  in
  match first with
  | Some l
    when String.starts_with ~prefix:"(* " l && String.ends_with ~suffix:" *)" l ->
    Some (String.sub l 3 (String.length l - 6))
  | _ -> None

let show diags = String.concat "; " (List.map Diag.to_string diags)

(* [<rule>_fire*] must report its own rule, at the rule's registered
   severity, and no other: isolation matters as much as detection (a
   fixture that also trips a second rule would hide regressions in
   either).  [<rule>_clean*] is a near miss and must report nothing. *)
let check_fixture base =
  let diags = fixture_diags base in
  match String.split_on_char '_' base with
  | rule :: "fire" :: _ ->
    let rule = String.uppercase_ascii rule in
    let severity =
      match LR.find rule with
      | Some m -> m.LR.severity
      | None -> Alcotest.failf "%s: %s is not a registered rule" base rule
    in
    if diags = [] then Alcotest.failf "%s: expected %s to fire, got nothing" base rule;
    List.iter
      (fun d ->
        if not (String.equal d.Diag.rule rule && d.Diag.severity = severity) then
          Alcotest.failf "%s: expected only %s at %s, got [%s]" base rule
            (Diag.severity_label severity) (show diags))
      diags
  | _ :: "clean" :: _ ->
    if diags <> [] then Alcotest.failf "%s: expected clean, got [%s]" base (show diags)
  | _ -> Alcotest.failf "%s: not named <rule>_fire* or <rule>_clean*" base

let fixture_case base =
  match title base with
  | Some name -> u name (fun () -> check_fixture base)
  | None ->
    u base (fun () -> Alcotest.failf "%s.ml: first line must be (* <case title> *)" base)

let corpus_tests =
  List.map fixture_case fixtures
  @ [
      u "lint_root scans the corpus in sorted order" (fun () ->
          let reports = Lint.lint_root cmt_dir in
          let sources = List.map (fun r -> r.Lint.source) reports in
          if fixtures = [] then Alcotest.failf "no fixture sources under %s" fixture_dir;
          if List.length sources <> List.length fixtures then
            Alcotest.failf "expected %d fixture units, got %d" (List.length fixtures)
              (List.length sources);
          if sources <> List.sort String.compare sources then
            Alcotest.fail "lint_root reports are not sorted by source");
      u "lint_root over the corpus matches golden/lint_fixtures.txt exactly" (fun () ->
          let file_line (d : Diag.t) =
            match String.split_on_char ':' d.Diag.location with
            | file :: line :: _ -> file ^ ":" ^ line
            | _ -> d.Diag.location
          in
          let got =
            List.sort String.compare
              (List.map
                 (fun d -> d.Diag.rule ^ " " ^ file_line d)
                 (Lint.all_diags (Lint.lint_root cmt_dir)))
          in
          let expected =
            In_channel.with_open_bin "golden/lint_fixtures.txt" In_channel.input_all
            |> String.split_on_char '\n'
            |> List.filter (fun l -> l <> "")
          in
          if got <> expected then
            Alcotest.failf
              "corpus findings drifted from the golden:\n--- expected\n%s\n--- got\n%s"
              (String.concat "\n" expected) (String.concat "\n" got));
    ]

(* --- cmt discovery ------------------------------------------------------ *)

let copy_file src dst =
  let ic = open_in_bin src in
  let n = in_channel_length ic in
  let data = really_input_string ic n in
  close_in ic;
  let oc = open_out_bin dst in
  output_string oc data;
  close_out oc

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let temp_dir () =
  let path = Filename.temp_file "subscale_lint_ctx" "" in
  Sys.remove path;
  Sys.mkdir path 0o700;
  path

(* A synthetic two-context _build: the same .cmt (same recorded source)
   under _build/alt and _build/default, plus the same broken artifact in
   both.  One unit must survive — the default context's — and the broken
   file must be reported once, not twice. *)
let cmt_load_tests =
  [
    u "load_root keeps one unit per source, preferring the default context"
      (fun () ->
        let root = temp_dir () in
        let build = Filename.concat root "_build" in
        Sys.mkdir build 0o700;
        let ctx_alt = Filename.concat build "alt" in
        let ctx_def = Filename.concat build "default" in
        Sys.mkdir ctx_alt 0o700;
        Sys.mkdir ctx_def 0o700;
        let src = Filename.concat cmt_dir "unt001_fire.cmt" in
        copy_file src (Filename.concat ctx_alt "unt001_fire.cmt");
        copy_file src (Filename.concat ctx_def "unt001_fire.cmt");
        write_file (Filename.concat ctx_alt "broken.cmt") "not a cmt";
        write_file (Filename.concat ctx_def "broken.cmt") "not a cmt";
        let units, unreadable = Lint.Cmt_load.load_root root in
        Alcotest.(check int) "one unit for the duplicated source" 1
          (List.length units);
        (match units with
        | [ u ] ->
          let path = u.Lint.Cmt_load.cmt_path in
          if not (List.mem "default" (String.split_on_char '/' path)) then
            Alcotest.failf "expected the default-context artifact, got %s" path
        | _ -> ());
        Alcotest.(check int) "one unreadable report for the duplicated break" 1
          (List.length unreadable));
    u "load_root still reports distinct unreadable artifacts separately"
      (fun () ->
        let root = temp_dir () in
        write_file (Filename.concat root "a.cmt") "garbage a";
        write_file (Filename.concat root "b.cmt") "garbage b";
        let units, unreadable = Lint.Cmt_load.load_root root in
        Alcotest.(check int) "no units" 0 (List.length units);
        Alcotest.(check int) "two unreadable reports" 2 (List.length unreadable));
  ]

(* --- baseline ---------------------------------------------------------- *)

let entry rule file line note = { B.rule; file; line; note }

(* Parse baseline text the way [subscale_lint] reads its file. *)
let of_string text =
  let path = Filename.temp_file "subscale-baseline" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      B.load path)

let is_todo e = B.todos [ e ] <> []

let baseline_tests =
  [
    u "baseline round-trips through to_string/of_string" (fun () ->
        let entries =
          [
            entry "LNT003" "lib/exec/pool.ml" 165 "exception parity";
            entry "LNT005" "lib/check/check.ml" 43 "CI tripwire output";
          ]
        in
        let reparsed = of_string (B.to_string entries) in
        if reparsed <> entries then
          Alcotest.failf "round trip changed the baseline:\n%s" (B.to_string reparsed));
    u "baseline matching suppresses by line, ignores column" (fun () ->
        let d rule location = Diag.warning ~rule ~location "x" in
        let b = [ entry "LNT003" "lib/a.ml" 10 "keep" ] in
        let { B.kept; suppressed; stale } =
          B.apply b [ d "LNT003" "lib/a.ml:10:7"; d "LNT003" "lib/a.ml:11:0" ]
        in
        Alcotest.(check int) "suppressed" 1 (List.length suppressed);
        Alcotest.(check int) "kept" 1 (List.length kept);
        Alcotest.(check int) "stale" 0 (List.length stale));
    u "unmatched baseline entries come back stale" (fun () ->
        let b = [ entry "LNT002" "lib/gone.ml" 3 "obsolete" ] in
        let { B.kept; suppressed; stale } = B.apply b [] in
        Alcotest.(check int) "kept" 0 (List.length kept);
        Alcotest.(check int) "suppressed" 0 (List.length suppressed);
        (match stale with
        | [ e ] when e.B.file = "lib/gone.ml" -> ()
        | _ -> Alcotest.fail "expected exactly the one stale entry"));
    u "malformed baseline lines raise with their line number" (fun () ->
        match of_string "# header\nnot a baseline line\n" with
        | exception B.Malformed (2, _) -> ()
        | exception B.Malformed (n, _) ->
          Alcotest.failf "malformed reported at line %d, expected 2" n
        | _ -> Alcotest.fail "of_string accepted a malformed line");
    u "entry_of_diag parses file:line:col locations" (fun () ->
        let d = Diag.warning ~rule:"LNT002" ~location:"lib/foo.ml:12:5" "x" in
        match B.entry_of_diag d with
        | Some e ->
          Alcotest.(check string) "file" "lib/foo.ml" e.B.file;
          Alcotest.(check int) "line" 12 e.B.line
        | None -> Alcotest.fail "entry_of_diag rejected a well-formed location");
    u "mixed LNT+UNT baseline round-trips and applies per family" (fun () ->
        let entries =
          [
            entry "LNT003" "lib/exec/pool.ml" 165 "— exception parity";
            entry "UNT005" "lib/tcad/poisson.ml" 22 "— solver vectors untracked";
            entry "UNT001" "lib/device/iv_model.ml" 40 "— deliberate cast";
          ]
        in
        let reparsed = of_string (B.to_string entries) in
        if reparsed <> entries then
          Alcotest.failf "mixed-family round trip changed the baseline:\n%s"
            (B.to_string reparsed);
        (* The UNT001 finding got fixed: its entry must come back stale
           while both the LNT and the remaining UNT entry keep matching. *)
        let d severity rule location = Diag.make ~rule ~severity ~location "x" in
        let { B.kept; suppressed; stale } =
          B.apply reparsed
            [
              d Diag.Warning "LNT003" "lib/exec/pool.ml:165:4";
              d Diag.Info "UNT005" "lib/tcad/poisson.ml:22:10";
            ]
        in
        Alcotest.(check int) "kept" 0 (List.length kept);
        Alcotest.(check int) "suppressed" 2 (List.length suppressed);
        (match stale with
        | [ e ] when e.B.rule = "UNT001" -> ()
        | _ ->
          Alcotest.failf "expected exactly the fixed UNT001 entry stale, got [%s]"
            (String.concat "; " (List.map B.entry_to_string stale))));
    u "is_todo flags --update-baseline stamps, todos filters them" (fun () ->
        let justified = entry "UNT005" "lib/a.ml" 1 "— solver vectors untracked" in
        let stamped = entry "UNT001" "lib/b.ml" 2 "— TODO: justify" in
        let bare_todo = entry "LNT002" "lib/c.ml" 3 "TODO look into this" in
        if is_todo justified then
          Alcotest.fail "a real justification must not count as TODO";
        if not (is_todo stamped) then
          Alcotest.fail "the --update-baseline stamp must count as TODO";
        if not (is_todo bare_todo) then
          Alcotest.fail "a bare TODO note must count as TODO";
        (match B.todos [ justified; stamped; bare_todo ] with
        | [ a; b ] when a = stamped && b = bare_todo -> ()
        | l ->
          Alcotest.failf "todos kept the wrong entries: [%s]"
            (String.concat "; " (List.map B.entry_to_string l)));
        (* The stamp must survive serialization — otherwise --strict could
           not reject a freshly regenerated baseline. *)
        match of_string (B.to_string [ stamped ]) with
        | [ e ] when is_todo e -> ()
        | _ -> Alcotest.fail "TODO stamp lost through to_string/of_string");
  ]

(* --- registry ---------------------------------------------------------- *)

let registry_tests =
  [
    u "every LNT, UNT, ALS and RAC rule is registered with the expected severity" (fun () ->
        List.iter
          (fun (id, sev) ->
            match LR.find id with
            | Some m when m.LR.severity = sev -> ()
            | Some _ -> Alcotest.failf "%s registered with the wrong severity" id
            | None -> Alcotest.failf "%s missing from the rule table" id)
          [
            (LR.lnt001, Diag.Error);
            (LR.lnt002, Diag.Warning);
            (LR.lnt003, Diag.Warning);
            (LR.lnt004, Diag.Error);
            (LR.lnt005, Diag.Warning);
            (LR.lnt006, Diag.Warning);
            (LR.unt001, Diag.Error);
            (LR.unt002, Diag.Error);
            (LR.unt003, Diag.Warning);
            (LR.unt004, Diag.Error);
            (LR.unt005, Diag.Info);
            (LR.als001, Diag.Error);
            (LR.als002, Diag.Error);
            (LR.als003, Diag.Error);
            (LR.als004, Diag.Warning);
            (LR.rac001, Diag.Error);
            (LR.rac002, Diag.Error);
            (LR.rac003, Diag.Error);
            (LR.rac004, Diag.Warning);
            (LR.rac005, Diag.Warning);
          ]);
    u "--rules markdown names every rule id" (fun () ->
        let md = Lint.rules_markdown () in
        let contains sub =
          let n = String.length md and m = String.length sub in
          let rec at i = i + m <= n && (String.sub md i m = sub || at (i + 1)) in
          at 0
        in
        List.iter
          (fun m ->
            if not (contains m.LR.id) then
              Alcotest.failf "--rules output is missing %s" m.LR.id)
          LR.all);
  ]

let suite =
  [ ("lint", corpus_tests @ cmt_load_tests @ baseline_tests @ registry_tests) ]
