(** Function-definition table for the interprocedural ALS pass.

    Records every let-bound function in the loaded units under its
    qualified source-level name ("Poisson.solve") so call sites — whose
    typedtree paths carry Stdlib prefixes and dune's wrapped-library
    mangling — resolve back to the definition they name.  Unresolved or
    ambiguous calls yield [None]: the downstream summary treats them as
    effect-free, which can only silence a finding, never invent one. *)

type param = {
  p_label : Asttypes.arg_label;
  p_idents : Ident.t list;  (** bound idents of the parameter pattern *)
}

type def = {
  id : int;
      (** dense index in [0, size): definitions first, then top-level code *)
  qname : string;        (** "Unit.Sub.f" *)
  unit_module : string;  (** capitalized basename of the source file *)
  source : string;
  params : param list;   (** in currying order *)
  prelude : Typedtree.value_binding list;
      (** bindings crossed while unwrapping the parameter chain (optional-
          argument default unpacking) — analyzed together with [body] *)
  body : Typedtree.expression;
  def_attrs : Parsetree.attributes;
  loc : Location.t;
}

type t

val build : Cmt_load.unit_info list -> t

val defs : t -> def list
(** The let-bound functions call sites can resolve to. *)

val code : t -> def list
(** Top-level code outside any function ([let () = ...], non-function
    bindings) as parameterless entries; never a call target. *)

val size : t -> int
(** Number of ids handed out over [defs] and [code]. *)

val defs_of_source : t -> string -> def list
(** Definitions, then top-level code, recorded from one source file, in
    declaration order. *)

val find : ?current_unit:string -> t -> Path.t -> def option
(** Resolve a call-site path: exact qualified match first, then unique
    suffix match, then — among several suffix matches — the unique one
    defined in [current_unit].  Anything else is [None]. *)
