(* The lint effect engine shared by LNT001, ALS001-004 and RAC001-005.

   Three layers, built once per analyzed tree:

   1. one context per {!Callgraph} entry, collected in a single walk:
      parameter and bound-ident tables, [let x = e] aliases, let-bound
      local functions, [let x = Atomic.get a] bindings, the closures
      passed to the parallel entry points, the resolved callees, and the
      callees where domain-crossing code starts;

   2. one summary record per definition — per parameter: mutated
      (buffer-flavored or not), stored, returned; and the concurrency
      facts: may raise, may block, lock classes acquired, parameter-rooted
      acquisitions — computed by one bounded monotone fixpoint;

   3. the {!Flow} root analysis every checking pass reads: which values an
      expression can alias, through let-chains, field projections,
      single-argument constructors and callees that return a parameter.

   Polarity: for ownership, everything unresolved is effect-free and
   rootless — a missed summary can silence a finding but never invent one.
   For may-raise it is inverted: an unresolved call counts as raising,
   because an exception-unsafe critical section is exactly where optimism
   ships a wedged process. *)

open Typedtree

let matches cands name = Paths.suffix_matches ~candidates:cands name

let dname p = Paths.demangle (Paths.path_name p)

(* --- the domain-crossing entry points ------------------------------------ *)

(* Literal closures passed here run concurrently on several domains. *)
let parallel_entries =
  [ "Exec.map"; "Exec.map2"; "Exec.mapi"; "Exec.map_array"; "Pool.map" ]

let spawn_entries = [ "Domain.spawn" ]

let crossing_entries = parallel_entries @ spawn_entries

let is_parallel_entry name = matches parallel_entries name

(* --- the primitive effect table ------------------------------------------ *)

type slot = Pos of int | Lab of string

type call_effects = {
  ce_mutated : slot list;
  ce_buffer_mutated : slot list;  (* subset of [ce_mutated]: buffer-flavored *)
  ce_stored : slot list;
  ce_returns : slot option;       (* the result aliases this argument *)
}

let buffer_ce mutated =
  { ce_mutated = mutated; ce_buffer_mutated = mutated; ce_stored = []; ce_returns = None }

let container_ce ?(stored = []) mutated =
  { ce_mutated = mutated; ce_buffer_mutated = []; ce_stored = stored; ce_returns = None }

(* Known in-place primitives: the hot path's flat buffers and the classic
   containers.  Positions count unlabelled arguments only; labelled
   arguments are named.  Dotted names match by path suffix, so
   fixture-local modules with the same shape take the same route as the
   real libraries; bare names ([incr], [:=]) match only unqualified, so
   [Atomic.incr] is not a ref write.  Container writes are never
   buffer-flavored: the ALS pass leaves container races to LNT001. *)
let primitive_effects =
  [ (* dst-mutating buffer writes *)
    ( [ "Fvec.set"; "Fvec.unsafe_set"; "Fvec.fill";
        "Field.set"; "Field.fill"; "Mask.set";
        "Array1.set"; "Array1.unsafe_set"; "Array1.fill";
        "Stencil5.set_row"; "Stencil5.factor"; "Sparse_lu.factor" ],
      buffer_ce [ Pos 0 ] );
    (* blit: source read, destination written *)
    ( [ "Fvec.blit"; "Field.blit"; "Array1.blit" ], buffer_ce [ Pos 1 ] );
    (* sparse solve: LU workspace inside the system plus the labelled dst.
       substitute only reads the workspace, but what it reads is the last
       factor's: it counts as a write so no two domains share a system. *)
    ( [ "Stencil5.solve"; "Stencil5.substitute"; "Sparse_lu.substitute" ],
      buffer_ce [ Pos 0; Lab "dst" ] );
    (* identity-shaped: the result aliases the argument's buffers — the
       checked buffer, or the system's own diagonals or values *)
    ( [ "Guard.fvec"; "Stencil5.rows"; "Sparse_lu.values" ],
      { ce_mutated = []; ce_buffer_mutated = []; ce_stored = [];
        ce_returns = Some (Pos 0) } );
    (* classic containers: target mutated, payload stored *)
    ( [ ":=" ], container_ce [ Pos 0 ] ~stored:[ Pos 1 ] );
    ( [ "incr"; "decr" ], container_ce [ Pos 0 ] );
    ( [ "Hashtbl.add"; "Hashtbl.replace" ], container_ce [ Pos 0 ] ~stored:[ Pos 2 ] );
    ( [ "Hashtbl.remove"; "Hashtbl.reset"; "Hashtbl.clear" ], container_ce [ Pos 0 ] );
    ( [ "Hashtbl.filter_map_inplace" ], container_ce [ Pos 1 ] );
    ( [ "Array.set"; "Array.unsafe_set" ], container_ce [ Pos 0 ] ~stored:[ Pos 2 ] );
    ( [ "Array.fill"; "Bytes.set"; "Bytes.unsafe_set"; "Bytes.fill";
        "Float.Array.set"; "Floatarray.set" ],
      container_ce [ Pos 0 ] );
    (* blit's source counts as mutated: LNT001 convicts a captured source *)
    ( [ "Array.blit"; "Bytes.blit" ], container_ce [ Pos 0; Pos 2 ] );
    ( [ "Queue.push"; "Queue.add"; "Stack.push" ], container_ce [ Pos 1 ] ~stored:[ Pos 0 ] );
    ( [ "Queue.pop"; "Queue.take"; "Queue.clear"; "Stack.pop"; "Stack.clear";
        "Buffer.add_string"; "Buffer.add_char"; "Buffer.add_buffer";
        "Buffer.clear"; "Buffer.reset" ],
      container_ce [ Pos 0 ] );
    ( [ "Queue.transfer" ], container_ce [ Pos 0; Pos 1 ] ) ]

let primitive_call_effects name =
  List.find_map
    (fun (candidates, ce) ->
      if
        List.exists
          (fun c -> if String.contains c '.' then matches [ c ] name else c = name)
          candidates
      then Some ce
      else None)
    primitive_effects

(* Does the named operation write one of its arguments in place? *)
let is_mutator name =
  match primitive_call_effects name with
  | Some ce -> ce.ce_mutated <> []
  | None -> false

(* --- the concurrency name tables ----------------------------------------- *)

let lock_names = [ "Mutex.lock" ]
let unlock_names = [ "Mutex.unlock" ]
let protect_names = [ "Mutex.protect" ]
let fun_protect_names = [ "Fun.protect" ]
let atomic_get_names = [ "Atomic.get" ]
let atomic_set_names = [ "Atomic.set" ]
let array_get_names = [ "Array.get"; "Array.unsafe_get" ]

(* Transparent higher-order functions: literal closure arguments run
   within the call's dynamic extent, so they are walked with the current
   held lockset.  The iterators themselves never raise. *)
let hof_names =
  [ "List.iter"; "List.iteri"; "List.map"; "List.mapi"; "List.rev_map";
    "List.filter"; "List.filter_map"; "List.concat_map"; "List.fold_left";
    "List.fold_right"; "List.exists"; "List.for_all"; "List.find_opt";
    "List.partition"; "List.sort"; "List.stable_sort"; "List.sort_uniq";
    "Array.iter"; "Array.iteri"; "Array.map"; "Array.mapi";
    "Array.fold_left"; "Array.init"; "Hashtbl.iter"; "Hashtbl.fold";
    "Hashtbl.filter_map_inplace"; "Queue.iter"; "Option.iter"; "Option.map";
    "Option.bind"; "Option.fold"; "with_span" ]

(* Never raise: the explicit floor under the "unknown may raise" polarity.
   Partial stdlib operations (Hashtbl.find, List.hd, Array.get, /, ...)
   are deliberately absent — falling through to "unknown" is the point. *)
let safe_names =
  [ "Mutex.create"; "Mutex.try_lock"; "Condition.create"; "Condition.wait";
    "Condition.signal"; "Condition.broadcast"; "Atomic.make"; "Atomic.incr";
    "Atomic.decr"; "Atomic.exchange"; "Atomic.compare_and_set";
    "Atomic.fetch_and_add"; "Hashtbl.create"; "Hashtbl.add";
    "Hashtbl.replace"; "Hashtbl.remove"; "Hashtbl.mem"; "Hashtbl.find_opt";
    "Hashtbl.find_all"; "Hashtbl.length"; "Hashtbl.reset"; "Hashtbl.clear";
    "Hashtbl.hash"; "Queue.create"; "Queue.add"; "Queue.push";
    "Queue.is_empty"; "Queue.length"; "Queue.clear"; "Queue.transfer";
    "Buffer.create"; "Buffer.add_string"; "Buffer.add_char";
    "Buffer.add_buffer"; "Buffer.contents"; "Buffer.length"; "Buffer.clear";
    "Buffer.reset"; "Stack.create"; "Stack.push"; "Stack.is_empty";
    "Stack.length"; "Stack.clear"; "List.rev"; "List.length"; "List.mem";
    "List.memq"; "List.append"; "List.concat"; "List.rev_append";
    "List.cons"; "Array.length"; "Array.make"; "Array.copy";
    "Array.unsafe_get"; "Array.unsafe_set"; "Array.to_list"; "Array.of_list";
    "String.length"; "String.equal"; "String.compare"; "String.concat";
    "String.trim"; "String.make"; "String.lowercase_ascii";
    "String.uppercase_ascii"; "String.capitalize_ascii"; "String.contains";
    "String.starts_with"; "String.ends_with"; "String.split_on_char";
    "Bytes.length"; "Bytes.create"; "ref"; "!"; ":="; "incr"; "decr"; "not";
    "ignore"; "fst"; "snd"; "succ"; "pred"; "abs"; "abs_float"; "max"; "min";
    "compare"; "="; "<>"; "=="; "!="; "<"; ">"; "<="; ">="; "&&"; "||";
    "+"; "-"; "*"; "+."; "-."; "*."; "/."; "~-"; "~-."; "~+"; "~+.";
    "float_of_int"; "int_of_float"; "float"; "truncate"; "ceil"; "floor";
    "sqrt"; "exp"; "log"; "log10"; "sin"; "cos"; "tan"; "atan"; "atan2";
    "land"; "lor"; "lxor"; "lnot"; "lsl"; "lsr"; "asr"; "string_of_int";
    "string_of_float"; "string_of_bool"; "int_of_string_opt";
    "float_of_string_opt"; "bool_of_string_opt"; "int_of_char";
    "Printf.sprintf"; "Format.sprintf"; "Format.asprintf"; "Float.equal";
    "Float.compare"; "Float.of_int"; "Float.to_int"; "Float.is_nan";
    "Float.is_finite"; "Float.abs"; "Float.min"; "Float.max";
    "Float.of_string_opt"; "Int.equal"; "Int.compare"; "Int.min"; "Int.max";
    "Int.abs"; "Int.to_float"; "Bool.equal"; "Char.equal"; "Char.code";
    "Option.value"; "Option.is_some"; "Option.is_none"; "Option.some";
    "Option.to_list"; "Option.equal"; "Result.is_ok"; "Result.is_error";
    "Result.ok"; "Result.error"; "Result.value"; "Sys.getenv_opt";
    "Sys.time"; "Sys.file_exists"; "Unix.gettimeofday"; "Monotonic_clock.now";
    "Int64.to_float";
    "Domain.recommended_domain_count"; "Domain.self"; "Domain.cpu_relax";
    "Fun.id"; "Fun.negate"; "Fun.const"; "Filename.concat";
    "Filename.basename"; "Filename.dirname"; "Printexc.to_string" ]

(* Calls that never return: a branch ending here drops out of the join,
   so "unlock; invalid_arg" early exits do not poison the fall-through
   path's held set. *)
let diverging_names =
  [ "raise"; "raise_notrace"; "failwith"; "invalid_arg"; "exit";
    "Printexc.raise_with_backtrace" ]

(* May block the calling domain (RAC005 while any lock is held).
   Condition.wait is deliberately absent: waiting releases the mutex —
   it *is* the sanctioned blocking-under-lock pattern. *)
let blocking_names =
  [ "Unix.read"; "Unix.write"; "Unix.single_write"; "Unix.select";
    "Unix.connect"; "Unix.accept"; "Unix.recv"; "Unix.send"; "Unix.sleep";
    "Unix.sleepf"; "Unix.waitpid"; "Unix.system"; "Unix.openfile";
    "In_channel.with_open_bin"; "In_channel.with_open_text";
    "In_channel.open_bin"; "In_channel.input_all"; "In_channel.input_line";
    "Out_channel.with_open_bin"; "Out_channel.with_open_text";
    "Out_channel.open_bin"; "Out_channel.output_string"; "Out_channel.flush";
    "open_in"; "open_in_bin"; "open_out"; "open_out_bin"; "input_line";
    "really_input"; "output_string"; "Sys.rename"; "Sys.remove";
    "Sys.readdir"; "Sys.command"; "Sys.mkdir"; "Digest.file"; "Domain.join" ]

let blocking_ok (attrs : Parsetree.attributes) =
  List.exists (fun a -> a.Parsetree.attr_name.Location.txt = "blocking_ok") attrs

(* --- contexts and summaries ----------------------------------------------- *)

type effect_ = { mutated : bool; buffer_mut : bool; stored : bool; returned : bool }

let no_effect = { mutated = false; buffer_mut = false; stored = false; returned = false }

type lock_kind = Kmod | Kfield | Klocal | Kparam

type sum = {
  effects : effect_ array;
  raises : bool;
  blocks : bool;
  acq : (string * lock_kind) list;
  pacq : (int * string list * string option) list;
}

let empty_sum (d : Callgraph.def) =
  { effects = Array.make (List.length d.Callgraph.params) no_effect;
    raises = false; blocks = false; acq = []; pacq = [] }

type ctx = {
  env : env;
  def : Callgraph.def;
  params : (string, int) Hashtbl.t;         (* unique_name -> param index *)
  bound : (string, unit) Hashtbl.t;         (* every pattern ident in the def *)
  aliases : (string, expression) Hashtbl.t; (* let x = <expr> *)
  funs : (string, expression) Hashtbl.t;    (* let-bound Texp_function *)
  atomic_gets : (string, expression) Hashtbl.t;  (* let x = Atomic.get a -> a *)
  mutable parallel_sites : (string * expression) list;
      (* literal closures passed to a parallel entry point, with its name *)
  mutable callees : Callgraph.def list;     (* every resolved call *)
  mutable seeds : Callgraph.def list;
      (* resolved calls inside domain-crossing closures, plus named
         functions passed to a crossing entry point *)
}

and env = {
  cg : Callgraph.t;
  resolved : (string, Callgraph.def option) Hashtbl.t;
  mutable ctxs : ctx array;  (* by Callgraph id *)
  sums : sum array;          (* by Callgraph id *)
}

let callgraph env = env.cg

let ctx env (d : Callgraph.def) = env.ctxs.(d.Callgraph.id)

let sum env (d : Callgraph.def) = env.sums.(d.Callgraph.id)

(* Call-site resolution, memoized per calling unit and path: the miss path
   of [Callgraph.find] scans every definition.  A name bound inside the
   definition (a local function, a parameter) is never a call target. *)
let resolve ctx (p : Path.t) =
  match p with
  | Path.Pident id
    when Hashtbl.mem ctx.bound (Ident.unique_name id)
         || Hashtbl.mem ctx.params (Ident.unique_name id) ->
    None
  | _ ->
    let current_unit = ctx.def.Callgraph.unit_module in
    let key = current_unit ^ "|" ^ Paths.path_name p in
    (match Hashtbl.find_opt ctx.env.resolved key with
     | Some r -> r
     | None ->
       let r = Callgraph.find ~current_unit ctx.env.cg p in
       Hashtbl.add ctx.env.resolved key r;
       r)

(* Slot of a parameter in its definition's calling convention: unlabelled
   parameters by position among unlabelled parameters, labelled ones by
   name. *)
let slot_of_param (params : Callgraph.param list) index =
  match (List.nth params index).Callgraph.p_label with
  | Asttypes.Nolabel ->
    let before = List.filteri (fun i _ -> i < index) params in
    Pos
      (List.length
         (List.filter (fun (p : Callgraph.param) -> p.Callgraph.p_label = Asttypes.Nolabel)
            before))
  | Asttypes.Labelled l | Asttypes.Optional l -> Lab l

let call_effects_of_sum (d : Callgraph.def) (s : sum) : call_effects =
  let params = d.Callgraph.params in
  let indices pred =
    List.filter_map Fun.id
      (Array.to_list (Array.mapi (fun i e -> if pred e then Some i else None) s.effects))
  in
  let slots pred = List.map (slot_of_param params) (indices pred) in
  { ce_mutated = slots (fun e -> e.mutated);
    ce_buffer_mutated = slots (fun e -> e.buffer_mut);
    ce_stored = slots (fun e -> e.stored);
    ce_returns =
      (match indices (fun e -> e.returned) with
       | [ i ] -> Some (slot_of_param params i)
       | _ -> None (* none, or ambiguous — claim nothing *)) }

(* Effects of a call through an applied path: the primitive table first
   (exact semantics for Bigarray and friends), then the current summary of
   a resolved definition. *)
let call_effects ctx (p : Path.t) : call_effects option =
  match primitive_call_effects (Paths.path_name p) with
  | Some ce -> Some ce
  | None -> Option.map (fun d -> call_effects_of_sum d (sum ctx.env d)) (resolve ctx p)

(* The call-site argument occupying a slot, if supplied. *)
let actual_of_slot (args : (Asttypes.arg_label * expression option) list) slot =
  match slot with
  | Pos i ->
    List.nth_opt
      (List.filter_map (function Asttypes.Nolabel, Some a -> Some a | _ -> None) args)
      i
  | Lab l ->
    List.find_map
      (function
        | (Asttypes.Labelled l' | Asttypes.Optional l'), Some a when l' = l -> Some a
        | _ -> None)
      args

let is_fun (e : expression) =
  match e.exp_desc with Texp_function _ -> true | _ -> false

(* The single collection walk over a definition (see layer 1 above). *)
let build_ctx env (d : Callgraph.def) : ctx =
  let ctx =
    { env;
      def = d;
      params = Hashtbl.create 8;
      bound = Hashtbl.create 64;
      aliases = Hashtbl.create 16;
      funs = Hashtbl.create 4;
      atomic_gets = Hashtbl.create 4;
      parallel_sites = [];
      callees = [];
      seeds = [] }
  in
  List.iteri
    (fun i (p : Callgraph.param) ->
      List.iter
        (fun id -> Hashtbl.replace ctx.params (Ident.unique_name id) i)
        p.Callgraph.p_idents)
    d.Callgraph.params;
  let crossing_depth = ref 0 in
  (* applied paths, flagged when inside a crossing closure, and named
     functions passed to a crossing entry point: resolved after the walk,
     once every local binding is known *)
  let calls = ref [] and named = ref [] in
  let pat : type k. Tast_iterator.iterator -> k general_pattern -> unit =
    fun it p ->
    List.iter
      (fun id -> Hashtbl.replace ctx.bound (Ident.unique_name id) ())
      (pat_bound_idents p);
    Tast_iterator.default_iterator.pat it p
  in
  let value_binding it vb =
    (match vb.vb_pat.pat_desc with
     | Tpat_var (id, _) ->
       let key = Ident.unique_name id in
       Hashtbl.replace ctx.aliases key vb.vb_expr;
       (match vb.vb_expr.exp_desc with
        | Texp_function _ -> Hashtbl.replace ctx.funs key vb.vb_expr
        | Texp_apply (fn, args) ->
          (match Paths.applied_path fn with
           | Some p when matches atomic_get_names (dname p) ->
             Option.iter (Hashtbl.replace ctx.atomic_gets key) (actual_of_slot args (Pos 0))
           | _ -> ())
        | _ -> ())
     | _ -> ());
    Tast_iterator.default_iterator.value_binding it vb
  in
  let expr (it : Tast_iterator.iterator) (e : expression) =
    match e.exp_desc with
    | Texp_apply (fn, args) ->
      (match Paths.applied_path fn with
       | Some p ->
         calls := (p, !crossing_depth > 0) :: !calls;
         let name = dname p in
         if matches crossing_entries name then begin
           it.expr it fn;
           List.iter
             (function
               | _, Some (a : expression) when is_fun a ->
                 if is_parallel_entry name then
                   ctx.parallel_sites <- (name, a) :: ctx.parallel_sites;
                 incr crossing_depth;
                 it.expr it a;
                 decr crossing_depth
               | _, Some a ->
                 Option.iter (fun ap -> named := ap :: !named) (Paths.applied_path a);
                 it.expr it a
               | _, None -> ())
             args
         end
         else Tast_iterator.default_iterator.expr it e
       | None -> Tast_iterator.default_iterator.expr it e)
    | _ -> Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with pat; value_binding; expr } in
  List.iter (fun vb -> it.value_binding it vb) d.Callgraph.prelude;
  it.expr it d.Callgraph.body;
  ctx.parallel_sites <- List.rev ctx.parallel_sites;
  List.iter
    (fun (p, crossing) ->
      Option.iter
        (fun c ->
          ctx.callees <- c :: ctx.callees;
          if crossing then ctx.seeds <- c :: ctx.seeds)
        (resolve ctx p))
    !calls;
  List.iter (fun p -> Option.iter (fun c -> ctx.seeds <- c :: ctx.seeds) (resolve ctx p)) !named;
  ctx

let parallel_sites ctx = ctx.parallel_sites

let callees ctx = ctx.callees

let seeds ctx = ctx.seeds

let alias ctx key = Hashtbl.find_opt ctx.aliases key

let local_fun ctx key = Hashtbl.find_opt ctx.funs key

let atomic_get ctx key = Hashtbl.find_opt ctx.atomic_gets key

let ctx_def ctx = ctx.def

(* --- alias/root tracking --------------------------------------------------- *)

module Flow = struct
  type base =
    | Param of int            (* parameter of the enclosing definition *)
    | Local of string         (* Ident.unique_name bound in the definition *)
    | Outer of string         (* module-level value or capture from outside *)

  type root = { base : base; rev_fields : string list }
      (* [rev_fields]: the field-projection trail, innermost first —
         [s.sys] roots at [s] with trail ["sys"].  Two roots alias when
         their bases agree and one trail is a suffix-extension of the
         other; diverging trails ([s.sys] vs [s.work]) do not. *)

  let same_base a b =
    match (a, b) with
    | Param i, Param j -> i = j
    | Local x, Local y | Outer x, Outer y -> String.equal x y
    | _ -> false

  (* Aliasing of two projection trails off one base: equal, or one extends
     the other (the whole of [s] overlaps [s.sys]). *)
  let overlapping_roots a b =
    same_base a.base b.base
    &&
    let la = List.length a.rev_fields and lb = List.length b.rev_fields in
    let longer, shorter, n =
      if la >= lb then (a.rev_fields, b.rev_fields, la - lb)
      else (b.rev_fields, a.rev_fields, lb - la)
    in
    List.filteri (fun i _ -> i >= n) longer = shorter

  let rec roots_at ~depth ctx (e : expression) : root list =
    if depth > 8 then []
    else
      let again e' = roots_at ~depth:(depth + 1) ctx e' in
      let named key =
        if Hashtbl.mem ctx.bound key then [ { base = Local key; rev_fields = [] } ]
        else [ { base = Outer key; rev_fields = [] } ]
      in
      match e.exp_desc with
      | Texp_ident (Path.Pident id, _, _) ->
        let key = Ident.unique_name id in
        (match Hashtbl.find_opt ctx.params key with
         | Some i -> [ { base = Param i; rev_fields = [] } ]
         | None ->
           (match Hashtbl.find_opt ctx.aliases key with
            | Some rhs -> (match again rhs with [] -> named key | rs -> rs)
            | None -> named key))
      | Texp_ident (p, _, _) -> [ { base = Outer (Paths.path_name p); rev_fields = [] } ]
      | Texp_field (inner, _, lbl) ->
        List.map
          (fun r -> { r with rev_fields = lbl.Types.lbl_name :: r.rev_fields })
          (again inner)
      | Texp_construct (_, _, [ inner ]) -> again inner
      | Texp_apply (fn, args) ->
        (match Paths.applied_path fn with
         | None -> []
         | Some p ->
           (match call_effects ctx p with
            | Some { ce_returns = Some slot; _ } ->
              (match actual_of_slot args slot with Some a -> again a | None -> [])
            | _ -> []))
      | Texp_ifthenelse (_, a, Some b) -> again a @ again b
      | Texp_ifthenelse (_, a, None) -> again a
      | Texp_sequence (_, b) | Texp_let (_, _, b) -> again b
      | _ -> []

  let roots ctx e = roots_at ~depth:0 ctx e

  (* Result expressions of a body: tail positions, flattened one level
     through constructors/tuples/records so [Some v] and [{ f = v }]
     count as returning [v]. *)
  let rec tails (e : expression) : expression list =
    match e.exp_desc with
    | Texp_let (_, _, b) | Texp_sequence (_, b) -> tails b
    | Texp_ifthenelse (_, a, Some b) -> tails a @ tails b
    | Texp_ifthenelse (_, a, None) -> tails a
    | Texp_match (_, cases, _) -> List.concat_map (fun c -> tails c.c_rhs) cases
    | Texp_try (b, cases) -> tails b @ List.concat_map (fun c -> tails c.c_rhs) cases
    | Texp_construct (_, _, args) -> e :: List.concat_map tails args
    | Texp_tuple comps -> e :: List.concat_map tails comps
    | Texp_record { fields; _ } ->
      e
      :: (Array.to_list fields
          |> List.concat_map (function
               | _, Overridden (_, fe) -> tails fe
               | _, Kept _ -> []))
    | _ -> [ e ]
end

(* --- lock identity ---------------------------------------------------------- *)

type lock = {
  l_cls : string option;
  l_kind : lock_kind;
  l_roots : Flow.root list;
  l_name : string;
  l_site : Location.t;
}

let strip_stamp unique =
  match String.rindex_opt unique '_' with
  | Some i when i > 0 -> String.sub unique 0 i
  | _ -> unique

let head_name (te : Types.type_expr) =
  match Paths.demangled_head te with Some (n, _) -> Some n | None -> None

(* Static class of a mutex-valued expression: the record type head plus
   field label ("Store.t.pending_lock"), the enclosing unit plus value
   name for module-level locks ("Memo.registry_lock"), or a
   definition-private name for locals.  [depth] caps alias chains. *)
let rec cls_of ?(depth = 0) ctx (e : expression) : string option * lock_kind =
  if depth > 8 then (None, Klocal)
  else
    match e.exp_desc with
    | Texp_ident (Path.Pident id, _, _) ->
      let key = Ident.unique_name id in
      let named () =
        if Hashtbl.mem ctx.bound key then (Some ("local " ^ key), Klocal)
        else
          (* module-level value of the unit under analysis *)
          (Some (ctx.def.Callgraph.unit_module ^ "." ^ strip_stamp key), Kmod)
      in
      if Hashtbl.mem ctx.params key then (None, Kparam)
      else (
        match Hashtbl.find_opt ctx.aliases key with
        | Some rhs when not (is_fun rhs) -> (
          match cls_of ~depth:(depth + 1) ctx rhs with
          | (Some _, _) as r -> r
          | None, _ ->
            if Hashtbl.mem ctx.bound key then (Some ("local " ^ key), Klocal)
            else (None, Klocal))
        | Some _ | None -> named ())
    | Texp_ident (p, _, _) -> (Some (dname p), Kmod)
    | Texp_field (inner, _, lbl) ->
      let head = Option.value ~default:"?" (head_name inner.exp_type) in
      (Some (head ^ "." ^ lbl.Types.lbl_name), Kfield)
    | Texp_apply (fn, args) -> (
      match Paths.applied_path fn with
      | Some p when matches array_get_names (dname p) -> (
        match actual_of_slot args (Pos 0) with
        | Some arr -> cls_of ~depth:(depth + 1) ctx arr
        | None -> (None, Klocal))
      | _ -> (None, Klocal))
    | _ -> (None, Klocal)

(* Printable name of a lock or state expression ("t.pending_lock"). *)
let rec pname (e : expression) =
  match e.exp_desc with
  | Texp_ident (Path.Pident id, _, _) -> Ident.name id
  | Texp_ident (p, _, _) -> dname p
  | Texp_field (inner, _, lbl) -> pname inner ^ "." ^ lbl.Types.lbl_name
  | Texp_apply (_, args) -> (
    match actual_of_slot args (Pos 0) with Some a -> pname a ^ ".(_)" | None -> "<lock>")
  | _ -> "<lock>"

let lock_of_expr ctx (e : expression) ~site : lock option =
  let roots = Flow.roots ctx e in
  let cls, kind = cls_of ctx e in
  match (cls, roots) with
  | None, [] -> None (* unknown identity: untracked, never convicted *)
  | _ ->
    Some { l_cls = cls; l_kind = kind; l_roots = roots; l_name = pname e; l_site = site }

(* --- call classification ------------------------------------------------------ *)

type call_kind =
  | Clock
  | Cunlock
  | Cprotect
  | Cfun_protect
  | Catomic_get
  | Catomic_set
  | Ccrossing
  | Chof
  | Csafe
  | Cdiverging
  | Cblocking
  | Clocal_fun of string           (* unique name of a let-bound local function *)
  | Cresolved of Callgraph.def
  | Cunknown

let classify ctx (p : Path.t) : call_kind * string =
  let name = dname p in
  let k =
    if matches lock_names name then Clock
    else if matches unlock_names name then Cunlock
    else if matches protect_names name then Cprotect
    else if matches fun_protect_names name then Cfun_protect
    else if matches atomic_get_names name then Catomic_get
    else if matches atomic_set_names name then Catomic_set
    else if matches crossing_entries name then Ccrossing
    else if matches hof_names name then Chof
    else if matches blocking_names name then Cblocking
    else if matches diverging_names name then Cdiverging
    else if matches safe_names name then Csafe
    else
      match p with
      | Path.Pident id when Hashtbl.mem ctx.funs (Ident.unique_name id) ->
        Clocal_fun (Ident.unique_name id)
      | _ -> (
        match resolve ctx p with
        | Some d -> Cresolved d
        | None -> Cunknown)
  in
  (k, name)

let catch_all_case c =
  match c.c_lhs.pat_desc with Tpat_any | Tpat_var _ -> true | _ -> false

(* --- transfer functions ----------------------------------------------------- *)

(* Ownership: which parameters the body mutates / stores / returns, given
   the current summaries of its callees. *)
let ownership_effects ctx : effect_ array =
  let d = ctx.def in
  let n = List.length d.Callgraph.params in
  let effects = Array.make n no_effect in
  let mark f roots =
    List.iter
      (fun (r : Flow.root) ->
        match r.Flow.base with
        | Flow.Param i when i < n -> effects.(i) <- f effects.(i)
        | _ -> ())
      roots
  in
  let mark_mutated = mark (fun e -> { e with mutated = true }) in
  let mark_buffer_mut = mark (fun e -> { e with buffer_mut = true }) in
  let mark_stored = mark (fun e -> { e with stored = true }) in
  let expr it (e : expression) =
    (match e.exp_desc with
     | Texp_apply (fn, args) ->
       (match Paths.applied_path fn with
        | None -> ()
        | Some p ->
          (match call_effects ctx p with
           | None -> ()
           | Some ce ->
             let over slots f =
               List.iter
                 (fun slot ->
                   Option.iter (fun a -> f (Flow.roots ctx a)) (actual_of_slot args slot))
                 slots
             in
             over ce.ce_mutated mark_mutated;
             over ce.ce_buffer_mutated mark_buffer_mut;
             over ce.ce_stored mark_stored))
     | Texp_setfield (target, _, _, v) ->
       mark_mutated (Flow.roots ctx target);
       mark_stored (Flow.roots ctx v)
     | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  List.iter (fun vb -> it.expr it vb.vb_expr) d.Callgraph.prelude;
  it.expr it d.Callgraph.body;
  List.iter
    (fun t -> mark (fun e -> { e with returned = true }) (Flow.roots ctx t))
    (Flow.tails d.Callgraph.body);
  effects

(* One definition's summary from the current summaries of its callees:
   the ownership effects above, plus may the body raise, may it block,
   which lock classes does it acquire (also through resolved calls), and
   which acquisitions are rooted in a parameter.  Deferred closures are
   skipped; transparent-HOF literal closures and local functions are
   walked. *)
let summarize ctx : sum =
  let raises = ref false and blocks = ref false in
  let acq = ref [] and pacq = ref [] in
  let mask = ref 0 in  (* nesting depth of catch-all try bodies *)
  let visited = Hashtbl.create 4 in
  let raise_hit () = if !mask = 0 then raises := true in
  let add_acq cls kind =
    match cls with
    | Some c when (kind = Kmod || kind = Kfield) && not (List.mem_assoc c !acq) ->
      acq := (c, kind) :: !acq
    | _ -> ()
  in
  let record_acquire (l : lock) =
    add_acq l.l_cls l.l_kind;
    List.iter
      (fun (r : Flow.root) ->
        match r.Flow.base with
        | Flow.Param i ->
          let entry = (i, r.Flow.rev_fields, l.l_cls) in
          if not (List.mem entry !pacq) then pacq := entry :: !pacq
        | Flow.Local _ | Flow.Outer _ -> ())
      l.l_roots
  in
  let rec eff (e : expression) =
    let cases cs = List.iter (fun c -> Option.iter eff c.c_guard; eff c.c_rhs) cs in
    match e.exp_desc with
    | Texp_function _ -> () (* deferred: its body runs on someone else's clock *)
    | Texp_assert _ -> () (* assertions are exempt from may-raise (noassert) *)
    | Texp_try (b, cs) ->
      if List.exists catch_all_case cs then begin
        incr mask;
        eff b;
        decr mask
      end
      else eff b;
      cases cs
    | Texp_apply (fn, args) ->
      (match fn.exp_desc with Texp_ident _ -> () | _ -> eff fn);
      let eff_args ?(now = false) () =
        List.iter
          (function
            | _, Some { exp_desc = Texp_function { cases = cs; _ }; _ } ->
              if now then cases cs
            | _, Some a -> eff a
            | _, None -> ())
          args
      in
      (match Paths.applied_path fn with
       | None ->
         eff_args ();
         raise_hit ()
       | Some p -> (
         match fst (classify ctx p) with
         | (Clock | Cprotect) as kind ->
           Option.iter
             (fun m -> Option.iter record_acquire (lock_of_expr ctx m ~site:e.exp_loc))
             (actual_of_slot args (Pos 0));
           if kind = Cprotect then eff_args ~now:true ()
         | Cunlock | Catomic_get | Catomic_set | Csafe -> eff_args ()
         | Cfun_protect | Chof -> eff_args ~now:true ()
         | Cdiverging ->
           eff_args ();
           raise_hit ()
         | Cblocking | Ccrossing ->
           (* a crossing call waits for its closures and re-raises theirs *)
           eff_args ();
           blocks := true;
           raise_hit ()
         | Clocal_fun key ->
           eff_args ();
           if not (Hashtbl.mem visited key) then begin
             Hashtbl.add visited key ();
             match Hashtbl.find_opt ctx.funs key with
             | Some { exp_desc = Texp_function { cases = cs; _ }; _ } -> cases cs
             | _ -> ()
           end
         | Cresolved callee ->
           eff_args ();
           let s = sum ctx.env callee in
           if s.raises then raise_hit ();
           if s.blocks then blocks := true;
           List.iter (fun (c, k) -> add_acq (Some c) k) s.acq
         | Cunknown ->
           eff_args ();
           raise_hit ()))
    | Texp_let (_, vbs, body) ->
      List.iter (fun vb -> eff vb.vb_expr) vbs;
      eff body
    | Texp_sequence (a, b) -> eff a; eff b
    | Texp_ifthenelse (c, a, b) -> eff c; eff a; Option.iter eff b
    | Texp_match (scrut, cs, _) -> eff scrut; cases cs
    | Texp_construct (_, _, es) | Texp_tuple es | Texp_array es -> List.iter eff es
    | Texp_variant (_, eo) -> Option.iter eff eo
    | Texp_record { fields; extended_expression } ->
      Array.iter (function _, Overridden (_, fe) -> eff fe | _, Kept _ -> ()) fields;
      Option.iter eff extended_expression
    | Texp_field (r, _, _) -> eff r
    | Texp_setfield (r, _, _, v) -> eff r; eff v
    | Texp_while (c, b) -> eff c; eff b
    | Texp_for (_, _, lo, hi, _, b) -> eff lo; eff hi; eff b
    | Texp_letmodule (_, _, _, _, b) | Texp_letexception (_, b) | Texp_open (_, b) -> eff b
    | _ -> ()
  in
  let d = ctx.def in
  List.iter (fun vb -> eff vb.vb_expr) d.Callgraph.prelude;
  eff d.Callgraph.body;
  { effects = ownership_effects ctx;
    raises = !raises;
    blocks = !blocks && not (blocking_ok d.Callgraph.def_attrs);
    acq = List.sort_uniq compare !acq;
    pacq = List.sort_uniq compare !pacq }

(* --- the fixpoint ----------------------------------------------------------- *)

(* Every fact only ever turns on, so the iteration is monotone; the round
   cap is a backstop for call chains deeper than anything in this
   repository. *)
let max_rounds = 12

let compute (cg : Callgraph.t) : env =
  let defs = Callgraph.defs cg in
  (* ids are dense over definitions, then top-level code *)
  let entries = defs @ Callgraph.code cg in
  let env =
    { cg;
      resolved = Hashtbl.create 1024;
      ctxs = [||];
      sums = Array.of_list (List.map empty_sum entries) }
  in
  env.ctxs <- Array.of_list (List.map (build_ctx env) entries);
  let rec iterate round =
    let changed = ref false in
    List.iter
      (fun (d : Callgraph.def) ->
        let fresh = summarize (ctx env d) in
        if fresh <> sum env d then begin
          changed := true;
          env.sums.(d.Callgraph.id) <- fresh
        end)
      defs;
    if !changed && round < max_rounds then iterate (round + 1)
  in
  iterate 1;
  env
