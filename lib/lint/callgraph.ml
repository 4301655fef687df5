(* Function-definition discovery for the interprocedural ALS pass.

   Walks every loaded compilation unit and records each let-bound function
   (toplevel or nested in sub-modules) under a qualified source-level name:
   "Poisson.solve", "Als003_fire.Fvec.blit".  Call sites resolve against
   these names after Stdlib-prefix stripping and wrapped-library
   demangling, so "Tcad__Poisson.solve" and a fixture's local "Fvec.blit"
   both find their definitions through the same table.

   Resolution is deliberately partial: an unknown or ambiguous callee
   yields [None], and the downstream analyses treat an unresolved call as
   effect-free — the sound-but-conservative direction for a linter (a
   missed summary can only silence a finding, never invent one). *)

open Typedtree

type param = {
  p_label : Asttypes.arg_label;
  p_idents : Ident.t list;  (* bound idents of the parameter pattern *)
}

type def = {
  id : int;                (* dense index: definitions first, then top-level code *)
  qname : string;          (* "Unit.Sub.f" — unit module, nested modules, name *)
  unit_module : string;    (* "Unit": capitalized basename of the source *)
  source : string;         (* the .cmt's recorded source path *)
  params : param list;     (* in currying order *)
  prelude : value_binding list;
      (* let-bindings crossed while unwrapping the parameter chain (the
         compiler's optional-argument default unpacking lands here) *)
  body : expression;
  def_attrs : Parsetree.attributes;  (* the binding's attributes ([@owned]...) *)
  loc : Location.t;
}

type t = { defs : def list; code : def list; by_name : (string, def list) Hashtbl.t }

let unit_module_of_source source =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename source))

(* Unwrap a curried [fun a -> fun ?(b=...) -> body] chain into its
   parameter list.  Optional-argument defaults compile to a let between
   two Texp_function layers; those bindings are kept as [prelude] so the
   summary walk still sees their aliases and effects.  Multi-case
   [function] bodies end the chain (the scrutinee patterns are not
   parameters in the summary sense). *)
let split_params (e : expression) =
  let rec go acc prelude (e : expression) =
    match e.exp_desc with
    | Texp_function { arg_label; cases = [ c ]; _ } ->
      let p = { p_label = arg_label; p_idents = pat_bound_idents c.c_lhs } in
      go (p :: acc) prelude c.c_rhs
    | Texp_let (Asttypes.Nonrecursive, vbs, inner) when acc <> [] ->
      (* Only between parameters: a let *before* any parameter is not a
         function at all, and the chain stops at the first real body. *)
      (match chases_function inner with
       | true -> go acc (prelude @ vbs) inner
       | false -> (List.rev acc, prelude, e))
    | _ -> (List.rev acc, prelude, e)
  and chases_function (e : expression) =
    match e.exp_desc with
    | Texp_function _ -> true
    | Texp_let (_, _, inner) -> chases_function inner
    | _ -> false
  in
  go [] [] e

let is_function (e : expression) =
  match e.exp_desc with Texp_function _ -> true | _ -> false

(* Definitions and top-level code of one unit.  Top-level code — a
   [let () = ...], a non-function binding — becomes a parameterless entry
   that checking passes walk like a definition but call sites never
   resolve to.  Ids are assigned by [build]. *)
let defs_of_unit (u : Cmt_load.unit_info) : def list * def list =
  let unit_module = unit_module_of_source u.Cmt_load.source in
  let defs = ref [] and code = ref [] in
  let entry ~qname ~params ~prelude ~body ~attrs ~loc =
    { id = -1; qname; unit_module; source = u.Cmt_load.source; params; prelude;
      body; def_attrs = attrs; loc }
  in
  let rec walk_structure prefix (str : structure) =
    List.iter
      (fun item ->
        match item.str_desc with
        | Tstr_value (_, vbs) -> List.iter (walk_binding prefix) vbs
        | Tstr_eval (e, attrs) ->
          code :=
            entry ~qname:(prefix ^ "(toplevel)") ~params:[] ~prelude:[] ~body:e ~attrs
              ~loc:item.str_loc
            :: !code
        | Tstr_module mb ->
          let name =
            match mb.mb_id with Some id -> Ident.name id | None -> "_"
          in
          walk_module (prefix ^ name ^ ".") mb.mb_expr
        | Tstr_recmodule mbs ->
          List.iter
            (fun mb ->
              let name =
                match mb.mb_id with Some id -> Ident.name id | None -> "_"
              in
              walk_module (prefix ^ name ^ ".") mb.mb_expr)
            mbs
        | _ -> ())
      str.str_items
  and walk_module prefix (me : module_expr) =
    match me.mod_desc with
    | Tmod_structure s -> walk_structure prefix s
    | Tmod_constraint (m, _, _, _) | Tmod_apply (_, m, _) -> walk_module prefix m
    | Tmod_functor (_, m) -> walk_module prefix m
    | Tmod_ident _ | Tmod_unpack _ | Tmod_apply_unit _ -> ()
  and walk_binding prefix vb =
    match vb.vb_pat.pat_desc with
    | Tpat_var (id, _) when is_function vb.vb_expr ->
      let params, prelude, body = split_params vb.vb_expr in
      defs :=
        entry ~qname:(prefix ^ Ident.name id) ~params ~prelude ~body
          ~attrs:vb.vb_attributes ~loc:vb.vb_pat.pat_loc
        :: !defs
    | _ ->
      code :=
        entry ~qname:(prefix ^ "(toplevel)") ~params:[] ~prelude:[] ~body:vb.vb_expr
          ~attrs:vb.vb_attributes ~loc:vb.vb_pat.pat_loc
        :: !code
  in
  walk_structure (unit_module ^ ".") u.Cmt_load.structure;
  (List.rev !defs, List.rev !code)

let build (units : Cmt_load.unit_info list) : t =
  let per_unit = List.map defs_of_unit units in
  let defs = List.concat_map fst per_unit in
  let code = List.concat_map snd per_unit in
  let defs = List.mapi (fun id d -> { d with id }) defs in
  let base = List.length defs in
  let code = List.mapi (fun i d -> { d with id = base + i }) code in
  let by_name = Hashtbl.create 256 in
  List.iter
    (fun d ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt by_name d.qname) in
      Hashtbl.replace by_name d.qname (d :: prev))
    defs;
  { defs; code; by_name }

let defs t = t.defs

let code t = t.code

let size t = List.length t.defs + List.length t.code

let defs_of_source t source =
  List.filter (fun d -> d.source = source) t.defs
  @ List.filter (fun d -> d.source = source) t.code

(* Resolve a call-site path against the table.  The recorded [qname]s are
   fully qualified; the call may be any suffix of one ("solve",
   "Poisson.solve", "Tcad__Poisson.solve").  Ambiguity resolves to the
   calling unit's own definition when there is exactly one, otherwise to
   nothing at all — a wrong summary is worse than no summary. *)
let find ?current_unit t (p : Path.t) : def option =
  let tiebreak many =
    match current_unit with
    | Some um ->
      (match List.filter (fun d -> d.unit_module = um) many with
       | [ d ] -> Some d
       | _ -> None)
    | None -> None
  in
  let name = Paths.demangle (Paths.path_name p) in
  match Hashtbl.find_opt t.by_name name with
  | Some [ d ] -> Some d
  | Some _ -> None
  | None ->
    let suffix = "." ^ name in
    let matches =
      List.filter
        (fun d ->
          let q = d.qname in
          String.length q > String.length suffix
          && String.sub q (String.length q - String.length suffix)
               (String.length suffix)
             = suffix)
        t.defs
    in
    (match matches with
     | [ d ] -> Some d
     | [] ->
       (* The call path can also be *longer* than the recorded qname: a
          library wrapper prefixes it ("Obs.Trace.enabled" for the def
          recorded as "Trace.enabled").  Drop leading components and
          retry the exact table — still a full-qname match, so the
          wrong-summary-is-worse-than-none contract holds. *)
       let rec drop name =
         match String.index_opt name '.' with
         | None -> None
         | Some i ->
           let name = String.sub name (i + 1) (String.length name - i - 1) in
           (match Hashtbl.find_opt t.by_name name with
            | Some [ d ] -> Some d
            | Some many -> tiebreak many
            | None -> drop name)
       in
       drop name
     | many -> tiebreak many)
