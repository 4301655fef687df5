(* UNT001-005 — static dimensional analysis by abstract interpretation
   over the typedtree.

   [infer] maps every expression to an element of the {!Dimension} lattice,
   threading an environment of let-bound dimensions.  Seeds come from the
   {!Unit_sig} tables (Physics.Constants, Silicon, Mobility, parameter
   record fields, Tcad accessors); everything unseeded is [Unknown], and
   unknown never fires — the pass is sound-but-conservative in exactly the
   LNT001 sense.  What does fire:

   - UNT001 (error): [+.]/[-.]/float comparison/min/max over operands with
     provably different exponents (a metre added to a volt);
   - UNT002 (error): exp/log/log10/expm1/log1p of a non-dimensionless
     value, or [**] with a non-integer literal exponent on one;
   - UNT003 (warning): display-scaled (nm, cm^-3, pA/um) and SI values of
     the same dimension combined without a table conversion;
   - UNT004 (error): an argument to a table-seeded function whose inferred
     exponents contradict the table;
   - UNT005 (info): a literal closure with a dimensioned result entering a
     polymorphic container round-trip — the element dimension is lost,
     reported once per site.

   Escape hatch: [(e [@units "V/dec"])] asserts a dimension and silences
   the subtree — the whitelist for deliberate unit casts. *)

module D = Check.Diagnostic
module Dim = Dimension
open Typedtree

module Env = Map.Make (String)

type ctx = {
  source : string;
  mutable diags : D.t list;
  seen : (string, unit) Hashtbl.t;  (* rule|location — once per site *)
}

let emit ctx ~rule ~severity ~loc ?hint message =
  let location = Srcloc.to_string ~source:ctx.source loc in
  let key = rule ^ "|" ^ location in
  if not (Hashtbl.mem ctx.seen key) then begin
    Hashtbl.add ctx.seen key ();
    ctx.diags <- D.make ?hint ~rule ~severity ~location message :: ctx.diags
  end

let is_float ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, [], _) -> Path.same p Predef.path_float
  | _ -> false

(* Source-level name of an applied path: Stdlib wrappers stripped, then
   dune's wrapped-library mangling undone. *)
let source_name p = Paths.demangle (Paths.normalize (Path.name p))

let from_stdlib p =
  let raw = Path.name p in
  String.length raw > 7 && String.sub raw 0 7 = "Stdlib."

(* --- Stdlib classification ---------------------------------------------- *)

let additive_ops = [ "+."; "-." ]
let multiplicative = [ "*." ]
let divisive = [ "/." ]
let identity_ops = [ "~-."; "~+."; "abs_float"; "Float.abs"; "Float.neg" ]
let sqrt_names = [ "sqrt"; "Float.sqrt" ]
let cbrt_names = [ "Float.cbrt" ]
let pow_names = [ "**"; "Float.pow" ]
let of_int_names = [ "float_of_int"; "Float.of_int" ]

(* Comparison-style combination: both operands must share a dimension.
   min/max additionally propagate it; boolean results carry none. *)
let comparison_ops = [ "="; "<>"; "=="; "!="; "<"; ">"; "<="; ">="; "compare" ]
let minmax_ops = [ "min"; "max"; "Float.min"; "Float.max"; "Float.equal"; "Float.compare" ]

(* Transcendentals whose argument must be a pure number (Eq. 1's
   exp((Vgs - Vth)/(m vT)) is the canonical normalization). *)
let transcendental =
  [ "exp"; "expm1"; "log"; "log10"; "log1p";
    "Float.exp"; "Float.expm1"; "Float.log"; "Float.log10"; "Float.log1p";
    "Float.log2"; "Float.exp2" ]

(* --- the [@units "..."] escape hatch ------------------------------------ *)

let units_attribute (e : expression) =
  List.find_map
    (fun (attr : Parsetree.attribute) ->
      if attr.attr_name.txt <> "units" then None
      else
        match attr.attr_payload with
        | Parsetree.PStr
            [ { pstr_desc =
                  Pstr_eval
                    ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
                _ } ] ->
          Some s
        | _ -> None)
    e.exp_attributes

(* --- helpers ------------------------------------------------------------ *)

let rec pattern_vars : type k. k general_pattern -> Ident.t list =
 fun p ->
  match p.pat_desc with
  | Tpat_var (id, _) -> [ id ]
  | Tpat_alias (p', id, _) -> id :: pattern_vars p'
  | Tpat_tuple ps | Tpat_construct (_, _, ps, _) | Tpat_array ps ->
    List.concat_map pattern_vars ps
  | Tpat_record (fields, _) -> List.concat_map (fun (_, _, p') -> pattern_vars p') fields
  | Tpat_variant (_, Some p', _) | Tpat_lazy p' | Tpat_exception p' -> pattern_vars p'
  | Tpat_or (a, b, _) -> pattern_vars a @ pattern_vars b
  | Tpat_value v -> pattern_vars (v :> value general_pattern)
  | Tpat_any | Tpat_constant _ | Tpat_variant (_, None, _) -> []

let bind_unknown env pat =
  List.fold_left
    (fun env id -> Env.add (Ident.unique_name id) Dim.Unknown env)
    env (pattern_vars pat)

(* Passing [~l:e] to an optional parameter wraps [e] in [Some]; unwrap so
   the table spec checks the value the programmer wrote. *)
let unwrap_option_arg (e : expression) =
  match e.exp_desc with
  | Texp_construct ({ txt = Longident.Lident "Some"; _ }, _, [ inner ]) -> inner
  | _ -> e

let float_literal (e : expression) =
  match e.exp_desc with
  | Texp_constant (Asttypes.Const_float s) -> float_of_string_opt s
  | _ -> None

(* --- the interpreter ---------------------------------------------------- *)

let rec infer ctx env (e : expression) : Dim.t =
  match units_attribute e with
  | Some s ->
    (* Asserted dimension: trust it and do not descend — this is the
       whitelist for deliberate casts, so the subtree must stay silent. *)
    (match Unit_sig.parse s with Ok d -> d | Error _ -> Dim.Unknown)
  | None -> infer_desc ctx env e

and infer_desc ctx env (e : expression) : Dim.t =
  match e.exp_desc with
  | Texp_ident (p, _, _) ->
    (match p with
     | Path.Pident id ->
       (match Env.find_opt (Ident.unique_name id) env with
        | Some d -> d
        | None -> lookup_constant p)
     | _ -> lookup_constant p)
  | Texp_constant _ -> Dim.Const
  | Texp_let (rec_flag, vbs, body) ->
    let env' = infer_bindings ctx env rec_flag vbs in
    infer ctx env' body
  | Texp_function { cases; _ } ->
    List.iter
      (fun c ->
        let env' = bind_unknown env c.c_lhs in
        Option.iter (fun g -> ignore (infer ctx env' g)) c.c_guard;
        ignore (infer ctx env' c.c_rhs))
      cases;
    Dim.Unknown
  | Texp_apply (fn, args) -> infer_apply ctx env e fn args
  | Texp_field (record, _, label) ->
    let _ = infer ctx env record in
    if not (is_float e.exp_type) then Dim.Unknown
    else
      (match Paths.head_constr record.exp_type with
       | Some (rname, _) ->
         (match Unit_sig.field ~record:(Paths.demangle rname) ~name:label.Types.lbl_name with
          | Some d -> d
          | None -> Dim.Unknown)
       | None -> Dim.Unknown)
  | Texp_record { fields; extended_expression } ->
    Option.iter (fun ext -> ignore (infer ctx env ext)) extended_expression;
    let rname =
      match Paths.head_constr e.exp_type with
      | Some (n, _) -> Some (Paths.demangle n)
      | None -> None
    in
    Array.iter
      (function
        | label, Overridden (_, expr) ->
          let inferred = infer ctx env expr in
          (match rname with
           | Some record ->
             (match Unit_sig.field ~record ~name:label.Types.lbl_name with
              | Some expected -> check_against_spec ctx ~what:(Printf.sprintf "field %s of %s" label.Types.lbl_name record) ~expected ~inferred ~loc:expr.exp_loc
              | None -> ())
           | None -> ())
        | _, Kept _ -> ())
      fields;
    Dim.Unknown
  | Texp_ifthenelse (cond, a, b) ->
    ignore (infer ctx env cond);
    let da = infer ctx env a in
    (match b with
     | Some b -> Dim.join da (infer ctx env b)
     | None -> Dim.Unknown)
  | Texp_match (scrut, cases, _) ->
    ignore (infer ctx env scrut);
    List.fold_left
      (fun acc c ->
        let env' = bind_unknown env c.c_lhs in
        Option.iter (fun g -> ignore (infer ctx env' g)) c.c_guard;
        let d = infer ctx env' c.c_rhs in
        match acc with None -> Some d | Some d' -> Some (Dim.join d' d))
      None cases
    |> Option.value ~default:Dim.Unknown
  | Texp_try (body, cases) ->
    let d0 = infer ctx env body in
    List.fold_left
      (fun acc c ->
        let env' = bind_unknown env c.c_lhs in
        Dim.join acc (infer ctx env' c.c_rhs))
      d0 cases
  | Texp_sequence (a, b) ->
    ignore (infer ctx env a);
    infer ctx env b
  | _ ->
    (* Anything else (tuples, constructors, setfield, loops, modules in
       expressions...): walk the children for their own findings; the
       value's dimension is unknown. *)
    walk_children ctx env e;
    Dim.Unknown

and lookup_constant p =
  match Unit_sig.constant (source_name p) with Some d -> d | None -> Dim.Unknown

and infer_bindings ctx env rec_flag vbs =
  match rec_flag with
  | Asttypes.Nonrecursive ->
    List.fold_left
      (fun env' vb ->
        let d = infer ctx env vb.vb_expr in
        match vb.vb_pat.pat_desc with
        | Tpat_var (id, _) -> Env.add (Ident.unique_name id) d env'
        | _ -> bind_unknown env' vb.vb_pat)
      env vbs
  | Asttypes.Recursive ->
    let env' = List.fold_left (fun acc vb -> bind_unknown acc vb.vb_pat) env vbs in
    List.iter (fun vb -> ignore (infer ctx env' vb.vb_expr)) vbs;
    env'

and walk_children ctx env e =
  let expr _ e' = ignore (infer ctx env e') in
  let it = { Tast_iterator.default_iterator with expr } in
  Tast_iterator.default_iterator.expr it e

(* Additive/comparison combination: the one place UNT001/UNT003 fire. *)
and combine_additive ctx ~op ~loc a b =
  match Dim.add a b with
  | Dim.Ok_dim d -> d
  | Dim.Mismatch (da, db) ->
    emit ctx ~rule:Lint_rules.unt001 ~severity:D.Error ~loc
      (Printf.sprintf "%s combines incompatible dimensions: %s vs %s" op
         (Dim.to_string (Dim.Dim da)) (Dim.to_string (Dim.Dim db)))
      ~hint:
        "convert one operand (the factor algebra of Eq. 1-8 must agree \
         termwise), or assert a deliberate cast with [@units \"...\"]";
    Dim.Unknown
  | Dim.Scale_mix (da, db) ->
    emit ctx ~rule:Lint_rules.unt003 ~severity:D.Warning ~loc
      (Printf.sprintf
         "%s mixes unit scales: %s (%s) vs %s (%s) — same dimension, different unit system"
         op
         (Dim.to_string (Dim.Dim { da with Dim.scale = Dim.Si })) (Dim.scale_label da.Dim.scale)
         (Dim.to_string (Dim.Dim { db with Dim.scale = Dim.Si })) (Dim.scale_label db.Dim.scale))
      ~hint:
        "cross unit systems only through the Constants helpers \
         (nm, um, per_cm3, pa_per_um and their to_* inverses)";
    Dim.Unknown

(* An inferred argument against a table spec (function argument or record
   field): exponent contradiction is UNT004, a scale-only contradiction is
   the UNT003 display/SI mix. *)
and check_against_spec ctx ~what ~expected ~inferred ~loc =
  match (expected, inferred) with
  | Dim.Dim de, Dim.Dim di ->
    if not (Dim.equal_exponents de di) then
      emit ctx ~rule:Lint_rules.unt004 ~severity:D.Error ~loc
        (Printf.sprintf "%s expects %s, got %s" what
           (Dim.to_string expected) (Dim.to_string inferred))
        ~hint:"the signature table (tools/lint/unit_sig.ml) records the intended units"
    else if Dim.scale_conflict de di then
      emit ctx ~rule:Lint_rules.unt003 ~severity:D.Warning ~loc
        (Printf.sprintf "%s expects %s but the argument is scaled as %s" what
           (Dim.scale_label de.Dim.scale) (Dim.scale_label di.Dim.scale))
        ~hint:
          "convert through the Constants helpers instead of passing a \
           display-scaled value straight in"
  | _ -> ()

and infer_apply ctx env (e : expression) fn args =
  match Paths.applied_path fn with
  | None ->
    ignore (infer ctx env fn);
    List.iter (function _, Some a -> ignore (infer ctx env a) | _ -> ()) args;
    Dim.Unknown
  | Some p ->
    let name = source_name p in
    let stdlib = from_stdlib p in
    let positional =
      List.filter_map (function Asttypes.Nolabel, Some a -> Some a | _ -> None) args
    in
    let walk_rest () =
      List.iter (function _, Some a -> ignore (infer ctx env a) | _ -> ()) args
    in
    let binary k =
      match positional with
      | [ a; b ] when List.length args = 2 -> Some (k a b)
      | _ -> None
    in
    let unary k =
      match positional with [ a ] when List.length args = 1 -> Some (k a) | _ -> None
    in
    let handled =
      if not stdlib then None
      else if List.mem name additive_ops then
        binary (fun a b ->
            let da = infer ctx env a and db = infer ctx env b in
            combine_additive ctx ~op:name ~loc:e.exp_loc da db)
      else if List.mem name multiplicative then
        binary (fun a b -> Dim.mul (infer ctx env a) (infer ctx env b))
      else if List.mem name divisive then
        binary (fun a b -> Dim.div (infer ctx env a) (infer ctx env b))
      else if List.mem name pow_names then
        binary (fun a b ->
            let da = infer ctx env a in
            let db = infer ctx env b in
            ignore db;
            match float_literal b with
            | Some x when Float.is_integer x && Float.abs x <= 64.0 ->
              Dim.pow da (Dim.rat_of_int (int_of_float x))
            | Some x ->
              if (not (Dim.is_dimensionless da)) && da <> Dim.Unknown && da <> Dim.Const
              then
                emit ctx ~rule:Lint_rules.unt002 ~severity:D.Error ~loc:e.exp_loc
                  (Printf.sprintf
                     "raising a dimensioned value (%s) to the non-integer power %g"
                     (Dim.to_string da) x)
                  ~hint:
                    "non-integer powers of dimensioned quantities have no \
                     consistent unit; normalize first or use [@units \"...\"]";
              Dim.Unknown
            | None -> Dim.Unknown)
      else if List.mem name identity_ops then unary (fun a -> infer ctx env a)
      else if List.mem name sqrt_names then unary (fun a -> Dim.sqrt_ (infer ctx env a))
      else if List.mem name cbrt_names then
        unary (fun a -> Dim.pow (infer ctx env a) (Dim.rat 1 3))
      else if List.mem name of_int_names then
        unary (fun a ->
            ignore (infer ctx env a);
            Dim.Const)
      else if List.mem name transcendental then
        unary (fun a ->
            let da = infer ctx env a in
            (match da with
             | Dim.Dim _ when not (Dim.is_dimensionless da) ->
               emit ctx ~rule:Lint_rules.unt002 ~severity:D.Error ~loc:e.exp_loc
                 (Printf.sprintf "%s applied to a dimensioned value (%s)" name
                    (Dim.to_string da))
                 ~hint:
                   "transcendental arguments must be pure numbers — normalize \
                    as in Eq. 1's exp((Vgs - Vth)/(m vT))"
             | _ -> ());
            Dim.dimensionless)
      else if List.mem name comparison_ops && positional <> []
              && List.for_all (fun (a : expression) -> is_float a.exp_type) positional
      then
        binary (fun a b ->
            let da = infer ctx env a and db = infer ctx env b in
            ignore (combine_additive ctx ~op:name ~loc:e.exp_loc da db);
            Dim.Unknown)
      else if List.mem name minmax_ops
              && List.for_all (fun (a : expression) -> is_float a.exp_type) positional
      then
        binary (fun a b ->
            let da = infer ctx env a and db = infer ctx env b in
            combine_additive ctx ~op:name ~loc:e.exp_loc da db)
      else None
    in
    (match handled with
     | Some d -> d
     | None ->
       if stdlib && Unit_sig.container_round_trip name then begin
         List.iter
           (function
             | _, Some ({ exp_desc = Texp_function _; _ } as lam) ->
               let body = closure_body_dim ctx env lam in
               (match body with
                | Dim.Dim _ when not (Dim.is_dimensionless body) ->
                  emit ctx ~rule:Lint_rules.unt005 ~severity:D.Info ~loc:lam.exp_loc
                    (Printf.sprintf
                       "element dimension %s is lost through %s; downstream \
                        values degrade to unknown"
                       (Dim.to_string body) name)
                    ~hint:
                      "the pass does not follow containers — assert the \
                       consumer's dimension with [@units \"...\"] if it matters"
                | _ -> ())
             | _, Some a -> ignore (infer ctx env a)
             | _ -> ())
           args;
         Dim.Unknown
       end
       else begin
         match Unit_sig.function_sig name with
         | None ->
           walk_rest ();
           Dim.Unknown
         | Some { Unit_sig.fn_args; fn_result } ->
           let pos = ref 0 in
           List.iter
             (fun (label, arg) ->
               match arg with
               | None -> ()
               | Some arg ->
                 let spec =
                   match label with
                   | Asttypes.Nolabel ->
                     let i = !pos in
                     incr pos;
                     List.find_map
                       (function Unit_sig.Pos j, d when j = i -> Some d | _ -> None)
                       fn_args
                   | Asttypes.Labelled l | Asttypes.Optional l ->
                     List.find_map
                       (function Unit_sig.Lab l', d when l' = l -> Some d | _ -> None)
                       fn_args
                 in
                 let arg = unwrap_option_arg arg in
                 let inferred = infer ctx env arg in
                 (match spec with
                  | Some expected ->
                    check_against_spec ctx
                      ~what:
                        (Printf.sprintf "%s of %s"
                           (match label with
                            | Asttypes.Nolabel ->
                              Printf.sprintf "argument %d" !pos
                            | Asttypes.Labelled l | Asttypes.Optional l -> "~" ^ l)
                           name)
                      ~expected ~inferred ~loc:arg.exp_loc
                  | None -> ()))
             args;
           if is_float e.exp_type then fn_result else Dim.Unknown
       end)

(* Joined dimension of a literal closure's body — what the elements of a
   container round-trip would carry. *)
and closure_body_dim ctx env (lam : expression) : Dim.t =
  match lam.exp_desc with
  | Texp_function { cases; _ } ->
    List.fold_left
      (fun acc c ->
        let env' = bind_unknown env c.c_lhs in
        Option.iter (fun g -> ignore (infer ctx env' g)) c.c_guard;
        let d = infer ctx env' c.c_rhs in
        match acc with None -> Some d | Some d' -> Some (Dim.join d' d))
      None cases
    |> Option.value ~default:Dim.Unknown
  | _ ->
    ignore (infer ctx env lam);
    Dim.Unknown

(* --- structure walk ----------------------------------------------------- *)

let rec walk_structure ctx env (str : structure) =
  ignore
    (List.fold_left
       (fun env item ->
         match item.str_desc with
         | Tstr_value (rec_flag, vbs) -> infer_bindings ctx env rec_flag vbs
         | Tstr_eval (e, _) ->
           ignore (infer ctx env e);
           env
         | Tstr_module mb ->
           walk_module ctx env mb.mb_expr;
           env
         | Tstr_recmodule mbs ->
           List.iter (fun mb -> walk_module ctx env mb.mb_expr) mbs;
           env
         | _ ->
           (* attributes, types, exceptions, includes...: nothing to infer,
              but walk any embedded expressions for their own findings. *)
           let expr _ e = ignore (infer ctx env e) in
           let it = { Tast_iterator.default_iterator with expr } in
           it.structure_item it item;
           env)
       env str.str_items)

and walk_module ctx env (me : module_expr) =
  match me.mod_desc with
  | Tmod_structure s -> walk_structure ctx env s
  | Tmod_constraint (m, _, _, _) | Tmod_apply (_, m, _) -> walk_module ctx env m
  | Tmod_functor (_, m) -> walk_module ctx env m
  | Tmod_ident _ | Tmod_unpack _ | Tmod_apply_unit _ -> ()

let check ~source (str : structure) : D.t list =
  let ctx = { source; diags = []; seen = Hashtbl.create 64 } in
  walk_structure ctx Env.empty str;
  List.rev ctx.diags
