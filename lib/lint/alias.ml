(* LNT001 and ALS001-004 — what parallel closures and solver buffers may
   touch, judged over the shared {!Summary} engine.

   Every literal closure handed to a parallel entry point runs
   concurrently on several domains, so it must not touch mutable state it
   shares with anything else.  One walk per closure resolves expressions
   to roots (parameter / local / outer, with field trails) and a root
   bound outside the closure is a capture.  It convicts:

   - LNT001: an identifier of always-hazardous type — ref, Hashtbl.t,
     Buffer.t, Queue.t, Stack.t, a flat buffer or solver scratch — rooted
     outside the closure, even for a read (it races with a writer
     elsewhere); and a container or array write (the engine's primitive
     table: [:=], [Hashtbl.add], [Array.set], [Array.blit] — source
     included — ...), record field assignment or instance variable
     assignment whose target is rooted outside the closure or has no root
     at all.  State reached through Exec.Memo / Obs / Memo. / Metrics. is
     sanctioned, and Atomic.t is not hazardous;
   - ALS001/ALS002: a flat buffer written (directly or through resolved
     calls) through a capture whose leaf identifier is not itself
     hazardous — a captured record whose buffer field a helper writes
     three calls down.  A hazardous leaf is LNT001's finding: one rule per
     defect.

   ALS002 (scratch escaping into long-lived state), ALS003 (an output
   buffer aliasing another argument of the same call) and ALS004 (a
   returned buffer that is also retained) are judged over the whole
   definition.  Everything the root analysis cannot resolve stays silent,
   except LNT001's rootless mutation. *)

module D = Check.Diagnostic
module Flow = Summary.Flow
open Typedtree

(* [@owned] on a binding asserts deliberate sharing (mirrors [@units]):
   the function knowingly returns a buffer it retains. *)
let owned_attr (attrs : Parsetree.attributes) =
  List.exists (fun a -> a.Parsetree.attr_name.Location.txt = "owned") attrs

(* Evidence through one constructor layer: [Some scratch] mentions
   scratch even though its own type is [scratch option]. *)
let rec mentions pred (e : expression) =
  pred e.exp_type
  ||
  match e.exp_desc with
  | Texp_construct (_, _, args) | Texp_tuple args -> List.exists (mentions pred) args
  | _ -> false

(* Identifier paths reached through these prefixes are sanctioned shared
   state.  "Memo." covers lib/exec's own internal call sites, where the
   module is in scope unqualified. *)
let whitelisted_prefixes = [ "Exec.Memo."; "Obs."; "Memo."; "Metrics." ]

let whitelisted name =
  List.exists (fun prefix -> String.starts_with ~prefix name) whitelisted_prefixes

let hazardous ty = Paths.is_mutable_container ty || Paths.is_flat_buffer ty

(* The identifier an lvalue-ish expression bottoms out in: [v], [s.sys]. *)
let rec leaf_ident (e : expression) =
  match e.exp_desc with
  | Texp_ident (p, _, vd) -> Some (p, vd.Types.val_type)
  | Texp_field (inner, _, _) -> leaf_ident inner
  | _ -> None

let short_path p =
  match p with Path.Pident id -> Ident.name id | _ -> Paths.path_name p

let short_of_root (r : Flow.root) =
  match (r.Flow.base, r.Flow.rev_fields) with
  | Flow.Local unique, fs ->
    String.concat "." (Summary.strip_stamp unique :: List.rev fs)
  | (Flow.Param _ | Flow.Outer _), _ -> "the captured value"

(* Render an expression's source name for messages when it is a simple
   ident or projection chain; fall back to the type. *)
let rec describe_expr (e : expression) =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> short_path p
  | Texp_field (inner, _, lbl) -> describe_expr inner ^ "." ^ lbl.Types.lbl_name
  | _ -> Paths.describe_type e.exp_type

(* --- parallel closures ------------------------------------------------------ *)

let judge_closure ctx ~source ~emit ~caller (lam : expression) : D.t list =
  let inside = Hashtbl.create 32 in
  let pat : type k. Tast_iterator.iterator -> k general_pattern -> unit =
    fun it p ->
    List.iter (fun id -> Hashtbl.replace inside (Ident.unique_name id) ()) (pat_bound_idents p);
    Tast_iterator.default_iterator.pat it p
  in
  let it = { Tast_iterator.default_iterator with pat } in
  it.expr it lam;
  let outside (r : Flow.root) =
    match r.Flow.base with
    | Flow.Local unique -> not (Hashtbl.mem inside unique)
    | Flow.Param _ | Flow.Outer _ -> true
  in
  let shared (r : Flow.root) =
    outside r && match r.Flow.base with Flow.Outer name -> not (whitelisted name) | _ -> true
  in
  (* one LNT001 finding per (identifier, kind) and closure *)
  let lnt = ref [] and seen = Hashtbl.create 8 in
  let lnt001 key loc msg ~hint =
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      lnt :=
        D.error ~rule:Lint_rules.lnt001 ~location:(Srcloc.to_string ~source loc)
          (Printf.sprintf "closure passed to %s %s" caller msg) ~hint
        :: !lnt
    end
  in
  let mutation ~kind (target : expression option) loc =
    match Option.map (Flow.roots ctx) target with
    | None | Some [] ->
      lnt001 ("mut:<opaque>:" ^ kind) loc
        (Printf.sprintf
           "mutates a value the purity pass cannot prove domain-local (%s)" kind)
        ~hint:"bind the mutated value to a name allocated inside the closure"
    | Some roots ->
      if List.exists shared roots then
        let name =
          match Option.bind target leaf_ident with
          | Some (p, _) -> short_path p
          | None -> Option.fold ~none:"?" ~some:describe_expr target
        in
        lnt001 ("mut:" ^ name ^ ":" ^ kind) loc
          (Printf.sprintf "mutates %s (%s)" name kind)
          ~hint:
            "only state allocated inside the closure may be mutated; shared results \
             belong in the returned value"
  in
  let buffer_write (am : expression) loc =
    match leaf_ident am with
    | Some (_, ty) when hazardous ty -> () (* the capture itself is LNT001's *)
    | _ -> (
      match List.filter outside (Flow.roots ctx am) with
      | [] -> ()
      | r :: _ ->
        if Paths.is_scratch am.exp_type then
          emit ~rule:Lint_rules.als002 ~location:(Srcloc.to_string ~source loc)
            ~hint:
              "allocate a per-call workspace inside the closure, or keep the sweep \
               sequential"
            (Printf.sprintf
               "closure passed to %s reenters the solver with captured scratch %s: \
                every domain would share one workspace"
               caller (describe_expr am))
        else
          emit ~rule:Lint_rules.als001 ~location:(Srcloc.to_string ~source loc)
            ~hint:
              "parallel closures own no shared buffers: allocate inside the closure or \
               return the data instead"
            (Printf.sprintf "closure passed to %s mutates buffer %s reachable from capture %s"
               caller (describe_expr am) (short_of_root r)))
  in
  let expr it (e : expression) =
    (match e.exp_desc with
     | Texp_ident (p, _, vd) when hazardous vd.Types.val_type ->
       if List.exists shared (Flow.roots ctx e) then
         lnt001 ("cap:" ^ Paths.path_name p) e.exp_loc
           (Printf.sprintf "captures mutable state: %s : %s" (short_path p)
              (Paths.describe_type vd.Types.val_type))
           ~hint:
             "pass the data immutably, or route shared state through the domain-safe \
              Exec.Memo / Obs.Metrics APIs"
     | Texp_setfield (target, _, _, _) ->
       mutation ~kind:"record field assignment" (Some target) e.exp_loc
     | Texp_setinstvar _ -> mutation ~kind:"instance variable assignment" None e.exp_loc
     | Texp_apply (fn, args) -> (
       match Paths.applied_path fn with
       | None -> ()
       | Some p ->
         let name = Paths.path_name p in
         (match Summary.primitive_call_effects name with
          | Some ce ->
            List.iter
              (fun slot ->
                if not (List.mem slot ce.Summary.ce_buffer_mutated) then
                  Option.iter
                    (fun (a : expression) -> mutation ~kind:name (Some a) a.exp_loc)
                    (Summary.actual_of_slot args slot))
              ce.Summary.ce_mutated
          | None -> ());
         Option.iter
           (fun (ce : Summary.call_effects) ->
             List.iter
               (fun slot ->
                 Option.iter
                   (fun am -> buffer_write am e.exp_loc)
                   (Summary.actual_of_slot args slot))
               ce.Summary.ce_buffer_mutated)
           (Summary.call_effects ctx p))
     | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it lam;
  List.rev !lnt

(* --- the definition walk ------------------------------------------------------ *)

let check_def (env : Summary.env) ~source (d : Callgraph.def) : D.t list =
  let ctx = Summary.ctx env d in
  let emit, findings = Lint_rules.emitter () in
  let emit_at ~rule ~loc ~hint msg =
    emit ~rule ~location:(Srcloc.to_string ~source loc) ~hint msg
  in
  let lnt =
    List.concat_map
      (fun (caller, lam) -> judge_closure ctx ~source ~emit ~caller lam)
      (Summary.parallel_sites ctx)
  in
  (* (roots of the stored value, the stored expression, site) *)
  let stores = ref [] in
  let record_store v loc = stores := (Flow.roots ctx v, v, loc) :: !stores in

  (* ALS003 at one application: a buffer-mutated slot whose actual shares a
     root with a *different* argument of the same call. *)
  let check_aliasing args (ce : Summary.call_effects) loc =
    List.iter
      (fun slot ->
        match Summary.actual_of_slot args slot with
        | Some am when Paths.is_flat_buffer am.exp_type ->
          let m_roots = Flow.roots ctx am in
          List.iter
            (fun (_, other) ->
              match other with
              | Some (ao : expression) when ao != am ->
                let o_roots = Flow.roots ctx ao in
                if
                  List.exists
                    (fun mr -> List.exists (Flow.overlapping_roots mr) o_roots)
                    m_roots
                then
                  emit_at ~rule:Lint_rules.als003 ~loc
                    ~hint:
                      "solver kernels assume non-overlapping operands; copy into a \
                       distinct destination or use the in-place variant deliberately"
                    (Printf.sprintf "output buffer %s aliases input %s in the same call"
                       (describe_expr am) (describe_expr ao))
              | _ -> ())
            args
        | _ -> ())
      ce.Summary.ce_buffer_mutated
  in
  let expr it (e : expression) =
    (match e.exp_desc with
     | Texp_apply (fn, args) ->
       (match Paths.applied_path fn with
        | None -> ()
        | Some p ->
          (match Summary.call_effects ctx p with
           | None -> ()
           | Some ce ->
             check_aliasing args ce e.exp_loc;
             List.iter
               (fun slot ->
                 Option.iter (fun v -> record_store v e.exp_loc)
                   (Summary.actual_of_slot args slot))
               ce.Summary.ce_stored))
     | Texp_setfield (_, _, _, v) -> record_store v e.exp_loc
     | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  List.iter (fun vb -> it.expr it vb.vb_expr) d.Callgraph.prelude;
  it.expr it d.Callgraph.body;

  (* ALS002 escape: a stored value that mentions scratch. *)
  List.iter
    (fun (_, v, loc) ->
      if mentions Paths.is_scratch v then
        emit_at ~rule:Lint_rules.als002 ~loc
          ~hint:
            "scratch is caller-owned: thread it as an argument and let it die with \
             the sweep"
          (Printf.sprintf
             "solver scratch %s stored into a long-lived structure: the workspace \
              escapes its owner"
             (describe_expr v)))
    !stores;

  (* ALS004: a returned buffer the definition also stored — unless the
     binding asserts [@owned]. *)
  if not (owned_attr d.Callgraph.def_attrs) then
    List.iter
      (fun (t : expression) ->
        if Paths.is_flat_buffer t.exp_type then
          let t_roots = Flow.roots ctx t in
          List.iter
            (fun (s_roots, v, _) ->
              if
                mentions Paths.is_flat_buffer v
                && List.exists
                     (fun tr -> List.exists (Flow.overlapping_roots tr) s_roots)
                     t_roots
              then
                emit_at ~rule:Lint_rules.als004 ~loc:t.exp_loc
                  ~hint:
                    "return a copy, drop the retained reference, or annotate the \
                     binding [@owned] if the sharing is deliberate"
                  (Printf.sprintf
                     "%s returns buffer %s it also retains internally: the caller and \
                      the retained copy alias"
                     d.Callgraph.qname (describe_expr t)))
            !stores)
      (Flow.tails d.Callgraph.body);
  lnt @ findings ()

let check (env : Summary.env) ~source : D.t list =
  List.concat_map (check_def env ~source)
    (Callgraph.defs_of_source (Summary.callgraph env) source)
