(* Path and type classification shared by every lint pass.

   The typedtree records fully resolved [Path.t]s, so "what function is
   being applied" and "what type does this identifier have" are exact —
   no name-based guessing beyond normalizing the [Stdlib] prefixes the
   compiler inserts ("Stdlib.ref", "Stdlib.Hashtbl.t", "Stdlib!.=" never
   appear in source but always in paths). *)

(* Strip the "Stdlib." / "Stdlib__" wrappers so matching works against the
   names a programmer writes: "Stdlib.Hashtbl.add" and "Stdlib__Hashtbl.add"
   both normalize to "Hashtbl.add". *)
let normalize name =
  let strip_component c =
    let prefix p = String.length c > String.length p && String.sub c 0 (String.length p) = p in
    if c = "Stdlib" then None
    else if prefix "Stdlib__" then
      (* "Stdlib__Hashtbl" -> "Hashtbl": undo the internal module mangling. *)
      let rest = String.sub c 8 (String.length c - 8) in
      Some (String.capitalize_ascii rest)
    else Some c
  in
  String.concat "." (List.filter_map strip_component (String.split_on_char '.' name))

let path_name p = normalize (Path.name p)

(* Undo dune's wrapped-library mangling: within (or across) wrapped
   libraries the typedtree records "Device__Params.physical" where the
   source says "Params.physical".  Each component keeps only what follows
   its last "__" separator, so signature tables can be written against the
   names programmers use. *)
let demangle name =
  let strip_component c =
    let n = String.length c in
    let rec last_sep i best =
      if i + 1 >= n then best
      else if c.[i] = '_' && c.[i + 1] = '_' then last_sep (i + 2) (Some (i + 2))
      else last_sep (i + 1) best
    in
    match last_sep 0 None with
    | Some start when start < n ->
      String.capitalize_ascii (String.sub c start (n - start))
    | _ -> c
  in
  String.concat "." (List.map strip_component (String.split_on_char '.' name))

(* [suffix_matches ~candidates name] — does [name] equal a candidate or end
   with ".candidate"?  Suffix matching makes "Exec.Pool.map" hit the
   "Pool.map" target and lets fixtures define local modules with the same
   shape as the real libraries. *)
let suffix_matches ~candidates name =
  List.exists
    (fun c ->
      name = c
      || (let lc = String.length c and ln = String.length name in
          ln > lc + 1 && String.sub name (ln - lc - 1) (lc + 1) = "." ^ c))
    candidates

(* Head ident of an application: [Some path] when the applied expression is
   a plain identifier (possibly via Texp_ident under coercion extras). *)
let applied_path (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_ident (p, _, _) -> Some p
  | _ -> None

(* --- type classification ------------------------------------------------ *)

(* Follow Tlink/Tsubst chains but do not expand abbreviations: an abstract
   type like [Exec.Memo.t] stays abstract, which is exactly the whitelist
   semantics we want (mutability hidden behind a sanctioned API is fine). *)
let head_constr ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, args, _) -> Some (path_name p, args)
  | _ -> None

(* Containers that are always a race hazard when captured by a closure that
   runs on another domain: even a read races with a writer elsewhere.
   [Atomic.t] is deliberately absent — atomics are the memory-model-sanctioned
   primitive and cannot tear; determinism abuse of atomics is what the
   dynamic schedule audit (subscale audit --schedules) convicts. *)
let mutable_container_names =
  [ "ref"; "Hashtbl.t"; "Buffer.t"; "Queue.t"; "Stack.t" ]

let is_mutable_container ty =
  match head_constr ty with
  | Some (name, _) -> suffix_matches ~candidates:mutable_container_names name
  | None -> false

(* --- flat-buffer classification (the TCAD hot-path state) --------------- *)

(* Like [head_constr] but with dune's wrapped-library mangling undone, so
   "Tcad__Poisson.scratch" matches a table written as "Poisson.scratch". *)
let demangled_head ty =
  match head_constr ty with
  | Some (name, args) -> Some (demangle name, args)
  | None -> None

(* Caller-owned solver workspaces: one value serves a whole sweep but must
   never be shared across concurrent domains, stored into long-lived
   structures, or handed to two overlapping solves. *)
let scratch_type_names = [ "Poisson.scratch"; "Stencil5.t"; "Sparse_lu.t" ]

let is_scratch ty =
  match demangled_head ty with
  | Some (name, _) -> suffix_matches ~candidates:scratch_type_names name
  | None -> false

(* Mutable flat buffers of the Bigarray hot path.  [Array1.t] covers both
   "Bigarray.Array1.t" and any local module shaped like it; Fvec.t/Field.t
   are the repo's own aliases (Field.t *is* Fvec.t, and either path can
   appear in inferred types depending on what the compiler saw first). *)
let buffer_type_names = [ "Fvec.t"; "Field.t"; "Array1.t"; "Mask.t" ]

let is_flat_buffer ty =
  (match demangled_head ty with
   | Some (name, _) -> suffix_matches ~candidates:buffer_type_names name
   | None -> false)
  || is_scratch ty

(* Float-ish: float itself, or a float sitting directly inside a tuple,
   option, list or array.  Deeper nesting (records carrying floats, maps of
   floats) needs environment expansion and is out of scope — documented in
   DESIGN.md as an under-approximation of LNT002. *)
let rec is_floatish ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, [], _) -> Path.same p Predef.path_float
  | Types.Tconstr (p, [ arg ], _) ->
    (Path.same p Predef.path_option || Path.same p Predef.path_list
    || Path.same p Predef.path_array)
    && is_floatish arg
  | Types.Ttuple comps -> List.exists is_floatish comps
  | _ -> false

(* Render a type's head constructor for messages ("ref", "Hashtbl.t", ...). *)
let describe_type ty =
  match head_constr ty with Some (name, _) -> name | None -> "<abstract>"
