(* LNT002/LNT003/LNT005/LNT006 — hygiene passes sharing one typedtree walk.

   LNT002 (float discipline): polymorphic structural equality on floats
   compiles, but bit-equality on computed floats is almost always a latent
   bug in a numerics codebase (NaN never equals itself; two mathematically
   equal expressions rarely share a bit pattern).  The pass flags
   [Stdlib.( = )]/[( <> )]/[( == )]/[( != )]/[compare] instantiated at
   float or at tuples/options/lists/arrays directly carrying floats.

   LNT006 (generic ordering): [Stdlib.( < )]/[( <= )]/[( > )]/[( >= )]/
   [min]/[max]/[compare] instantiated at a bare type variable cannot be
   specialized, so every float it reads from an ['a array] is boxed and
   compared through [caml_compare].  A helper written for float tables
   but inferred at ['a] pays that on every element.

   LNT003 (exception hygiene): a [try ... with _ ->] swallows
   [Root.No_convergence] and [Check.Check_failed] alike, turning a loud
   solver failure into a silently wrong number.  Catch-alls are flagged
   unless the handler re-raises.

   LNT005 (output hygiene): library code never prints to stdout/stderr
   directly; results flow through lib/report and observability through
   lib/obs, so every consumer (CLI, tests, future services) controls its
   own channels.  The two sanctioned output layers are exempted by the
   runner via [exempt_output]. *)

module D = Check.Diagnostic
open Typedtree

(* --- LNT002 ------------------------------------------------------------- *)

let poly_compare_names = [ "="; "<>"; "=="; "!="; "compare" ]

(* Only the genuine Stdlib polymorphic operators: a user-defined [compare]
   or [Float.compare] has a different (un-normalized) path. *)
let is_stdlib_named names p =
  let raw = Path.name p in
  let normalized = Paths.normalize raw in
  List.mem normalized names
  && String.length raw > 7
  && String.sub raw 0 7 = "Stdlib."

(* --- LNT006 ------------------------------------------------------------- *)

let poly_order_names = [ "<"; "<="; ">"; ">="; "min"; "max"; "compare" ]

(* The operator's instance type is [t -> t -> _]: generic when [t] is a
   type variable. *)
let at_type_variable ty =
  match Types.get_desc ty with
  | Types.Tarrow (_, arg, _, _) ->
    (match Types.get_desc arg with Types.Tvar _ | Types.Tunivar _ -> true | _ -> false)
  | _ -> false

(* --- LNT003 ------------------------------------------------------------- *)

let rec value_catch_all (p : pattern) =
  match p.pat_desc with
  | Tpat_any -> true
  | Tpat_var _ -> true
  | Tpat_alias (p', _, _) -> value_catch_all p'
  | Tpat_or (a, b, _) -> value_catch_all a || value_catch_all b
  | _ -> false

(* Does the handler body re-raise (any raise counts: [raise e] after
   cleanup is the sanctioned catch-all shape)? *)
let reraises (body : expression) =
  let found = ref false in
  let expr it (e : expression) =
    (match e.exp_desc with
     | Texp_apply (fn, _) ->
       (match Paths.applied_path fn with
        | Some p ->
          let name = Paths.path_name p in
          if
            List.mem name [ "raise"; "raise_notrace"; "Printexc.raise_with_backtrace" ]
          then found := true
        | None -> ())
     | _ -> ());
    if not !found then Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it body;
  !found

(* --- LNT005 ------------------------------------------------------------- *)

let printer_names =
  [ "print_string"; "print_bytes"; "print_int"; "print_float"; "print_char";
    "print_endline"; "print_newline"; "prerr_string"; "prerr_bytes"; "prerr_int";
    "prerr_float"; "prerr_char"; "prerr_endline"; "prerr_newline";
    "Printf.printf"; "Printf.eprintf"; "Format.printf"; "Format.eprintf";
    "Format.print_string"; "Format.print_newline" ]

let is_direct_printer p =
  let raw = Path.name p in
  Paths.suffix_matches ~candidates:printer_names (Paths.normalize raw)
  && String.length raw > 7
  && String.sub raw 0 7 = "Stdlib."

(* --- the shared walk ---------------------------------------------------- *)

let check ~source ~exempt_output (str : structure) : D.t list =
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  let flag_catch_all (case : value case) =
    if value_catch_all case.c_lhs && not (reraises case.c_rhs) then
      emit
        (D.warning ~rule:Lint_rules.lnt003
           ~location:(Srcloc.to_string ~source case.c_lhs.pat_loc)
           "catch-all exception handler does not re-raise: it can swallow \
            Root.No_convergence and checker diagnostics"
           ~hint:"name the exceptions you expect, or re-raise after cleanup")
  in
  let expr it (e : expression) =
    (match e.exp_desc with
     | Texp_apply (fn, args) ->
       (match Paths.applied_path fn with
        | Some p when is_stdlib_named poly_compare_names p ->
          let first_arg =
            List.find_map
              (function Asttypes.Nolabel, Some (a : expression) -> Some a | _ -> None)
              args
          in
          (match first_arg with
           | Some a when Paths.is_floatish a.exp_type ->
             emit
               (D.warning ~rule:Lint_rules.lnt002
                  ~location:(Srcloc.to_string ~source e.exp_loc)
                  (Printf.sprintf
                     "polymorphic %s on a float-carrying type"
                     (Paths.path_name p))
                  ~hint:
                    "use Float.equal / Float.compare, or an explicit tolerance \
                     (bit-equality on computed floats is almost never meant)")
           | _ -> ())
        | Some p when (not exempt_output) && is_direct_printer p ->
          emit
            (D.warning ~rule:Lint_rules.lnt005
               ~location:(Srcloc.to_string ~source e.exp_loc)
               (Printf.sprintf "direct console output via %s in library code"
                  (Paths.path_name p))
               ~hint:
                 "format into a string/Buffer and return it, or route through \
                  lib/report (results) / lib/obs (telemetry)")
        | _ -> ())
     | Texp_ident (p, _, _)
       when is_stdlib_named poly_order_names p && at_type_variable e.exp_type ->
       emit
         (D.warning ~rule:Lint_rules.lnt006
            ~location:(Srcloc.to_string ~source e.exp_loc)
            (Printf.sprintf "polymorphic %s instantiated at a type variable"
               (Paths.path_name p))
            ~hint:
              "annotate the operands' type (e.g. float array) or use a monomorphic \
               comparison such as Float.compare: the generic one boxes every float \
               it reads and calls caml_compare")
     | Texp_try (_, cases) -> List.iter flag_catch_all cases
     | Texp_match (_, cases, _) ->
       List.iter
         (fun (case : computation case) ->
           match split_pattern case.c_lhs with
           | _, Some exn_pat when value_catch_all exn_pat ->
             if not (reraises case.c_rhs) then
               emit
                 (D.warning ~rule:Lint_rules.lnt003
                    ~location:(Srcloc.to_string ~source exn_pat.pat_loc)
                    "catch-all [match ... with exception _] does not re-raise: it \
                     can swallow Root.No_convergence and checker diagnostics"
                    ~hint:"name the exceptions you expect, or re-raise after cleanup")
           | _ -> ())
         cases
     | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.structure it str;
  List.rev !diags
