(* LNT004 — diagnostic discipline.

   Every rule id in this repo is minted through [Check.Rules.register],
   which turns id collisions and malformed ids into a startup failure.
   A literal string handed straight to [Diagnostic.error ~rule:"..."]
   bypasses that registry: the id skips both checks and is free to
   collide silently.  The pass flags any [Diagnostic.error/
   warning/info/make] application whose [~rule] argument is a string
   constant — the fix is a one-liner:

     let rule = Rules.register ~summary:"..." "my-rule"  *)

module D = Check.Diagnostic
open Typedtree

let constructors =
  [ "Diagnostic.error"; "Diagnostic.warning"; "Diagnostic.info"; "Diagnostic.make" ]

let check ~source (str : structure) : D.t list =
  let diags = ref [] in
  let expr it (e : expression) =
    (match e.exp_desc with
     | Texp_apply (fn, args) ->
       (match Paths.applied_path fn with
        | Some p when Paths.suffix_matches ~candidates:constructors (Paths.path_name p) ->
          List.iter
            (function
              | ( Asttypes.Labelled "rule",
                  Some
                    ({ exp_desc = Texp_constant (Asttypes.Const_string (lit, _, _)); _ } as
                     arg) ) ->
                diags :=
                  D.error ~rule:Lint_rules.lnt004
                    ~location:(Srcloc.to_string ~source arg.exp_loc)
                    (Printf.sprintf
                       "diagnostic rule id %S is a literal, not minted via Check.Rules"
                       lit)
                    ~hint:
                      "bind it once: let rule = Check.Rules.register ~summary:\"...\" \
                       \"...\" and pass ~rule"
                  :: !diags
              | _ -> ())
            args
        | _ -> ())
     | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.structure it str;
  List.rev !diags
