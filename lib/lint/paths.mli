(** Path normalization and type classification shared by the lint passes.

    All matching is done on fully resolved typedtree [Path.t]s with the
    [Stdlib] prefixes stripped, so the passes see the names a programmer
    writes ("Hashtbl.add", "=", "Exec.map") regardless of how the compiler
    mangled them. *)

val normalize : string -> string
(** Strip ["Stdlib."] / ["Stdlib__"] wrappers from a dotted path name. *)

val path_name : Path.t -> string
(** [normalize (Path.name p)]. *)

val demangle : string -> string
(** Undo dune's wrapped-library mangling per component
    ("Device__Params.physical" -> "Params.physical"), so signature tables
    can be written against source-level names. *)

val suffix_matches : candidates:string list -> string -> bool
(** Does the name equal a candidate or end with [".candidate"]?  Lets
    "Exec.Pool.map" match the "Pool.map" target. *)

val applied_path : Typedtree.expression -> Path.t option
(** The applied function's path when it is a plain identifier. *)

val head_constr : Types.type_expr -> (string * Types.type_expr list) option
(** Normalized name and arguments of the type's head constructor, without
    expanding abbreviations (abstract stays abstract). *)

val is_mutable_container : Types.type_expr -> bool

val demangled_head : Types.type_expr -> (string * Types.type_expr list) option
(** [head_constr] with dune's wrapped-library mangling undone, so
    "Tcad__Poisson.scratch" reads as "Poisson.scratch". *)

val is_scratch : Types.type_expr -> bool

val is_flat_buffer : Types.type_expr -> bool
(** A flat buffer or an owned workspace: capture by a parallel closure is
    always hazardous (even a read races with a writer elsewhere). *)

val is_floatish : Types.type_expr -> bool
(** float, or float directly inside a tuple/option/list/array. *)

val describe_type : Types.type_expr -> string
(** Head-constructor name for diagnostics. *)
