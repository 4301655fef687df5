(* The held-lockset walk behind RAC001-005 (lib/lint/races.ml).

   Everything interprocedural — per-definition contexts, lock identity,
   the may-raise / may-block / acquires summaries — comes from the shared
   {!Summary} engine.  This module adds the two RAC-specific layers:

   1. domain-crossing reachability: the definitions reachable from the
      closures (and named functions) handed to Exec.map/Pool.map/
      Domain.spawn, grown over each context's resolved callees;

   2. a path-sensitive walk of each body threading the *held lockset* —
      which locks are held and whether each is exception-protected
      (Mutex.protect / Fun.protect ~finally) — emitting typed events the
      Races pass turns into diagnostics.  Branch joins keep a lock only
      when every non-diverging branch holds it, so the
      "unlock-then-invalid_arg" early-exit idiom stays precise; nested
      let-bound functions (a worker's [await] loop) are inlined with a
      visited set breaking recursion.

   Lock identity keeps the conservative contract: unknown mutex
   expressions are simply not tracked. *)

open Typedtree
open Summary

type hlock = { h_lock : lock; h_protected : bool }

type guard = Same_instance of string | Module_lock of string

type access_kind = Read | Write | Use

type event =
  | Reacquire of { lock : lock; site : Location.t }
  | Raise_evidence of { op : string; site : Location.t; locks : lock list }
  | Block_evidence of { op : string; site : Location.t; locks : lock list }
  | Order_edge of { held_cls : string; acq_cls : string; site : Location.t }
  | Access of {
      cls : string;
      kind : access_kind;
      guards : guard list;
      crossing : bool;
      fresh : bool;
      site : Location.t;
      descr : string;
    }
  | Torn_rmw of { name : string; site : Location.t }
  | Mod_lock_seen of string

type t = { env : Summary.env; cross : bool array (* by Callgraph id *) }

let crossing t (d : Callgraph.def) = t.cross.(d.Callgraph.id)

let rec unwrap_fun (e : expression) =
  match e.exp_desc with
  | Texp_function { cases = [ c ]; _ } when c.c_guard = None -> unwrap_fun c.c_rhs
  | _ -> e

(* --- lock-set algebra ------------------------------------------------------ *)

let bases_overlap (a : Flow.root) (b : Flow.root) =
  Flow.overlapping_roots
    { a with Flow.rev_fields = [] }
    { b with Flow.rev_fields = [] }

let same_lock a b =
  (match (a.l_kind, b.l_kind) with
   | Kmod, Kmod -> a.l_cls <> None && a.l_cls = b.l_cls
   | _ -> false)
  || List.exists
       (fun ra -> List.exists (Flow.overlapping_roots ra) b.l_roots)
       a.l_roots

let unprotected held =
  List.filter_map (fun h -> if h.h_protected then None else Some h.h_lock) held

let guards_for held (acc_roots : Flow.root list) =
  List.filter_map
    (fun h ->
      let l = h.h_lock in
      match l.l_kind with
      | Kmod -> Option.map (fun c -> Module_lock c) l.l_cls
      | Kfield | Klocal | Kparam -> (
        match l.l_cls with
        | Some c
          when List.exists
                 (fun lr -> List.exists (bases_overlap lr) acc_roots)
                 l.l_roots ->
          Some (Same_instance c)
        | _ -> None))
    held

(* --- guarded-record field classification (RAC001a) ------------------------ *)

let type_is name (te : Types.type_expr) =
  match head_name te with Some n -> String.equal n name | None -> false

let mutexish (te : Types.type_expr) =
  type_is "Mutex.t" te || type_is "Condition.t" te
  ||
  match Paths.demangled_head te with
  | Some ("array", [ el ]) -> type_is "Mutex.t" el
  | _ -> false

(* The record declares a mutex alongside other state: accesses to its
   mutable fields are expected to be consistently guarded. *)
let guarded_record (lbl : Types.label_description) =
  Array.exists (fun l -> mutexish l.Types.lbl_arg) lbl.Types.lbl_all

let interesting_field (lbl : Types.label_description) =
  let te = lbl.Types.lbl_arg in
  if mutexish te || type_is "Atomic.t" te then None
  else if Paths.is_mutable_container te then Some Use
  else if lbl.Types.lbl_mut = Asttypes.Mutable then Some Read
  else None

let field_cls (record : expression) (lbl : Types.label_description) =
  let head = Option.value ~default:"?" (head_name record.exp_type) in
  head ^ "." ^ lbl.Types.lbl_name

let receiver_fresh ctx (roots : Flow.root list) =
  List.exists
    (fun (r : Flow.root) ->
      match r.Flow.base with
      | Flow.Local u -> (
        match alias ctx u with
        | Some { exp_desc = Texp_record _; _ } -> true
        | _ -> false)
      | Flow.Param _ | Flow.Outer _ -> false)
    roots

(* Class of a module-level mutable container root (RAC001b). *)
let outer_container_cls ctx (r : Flow.root) =
  match (r.Flow.base, r.Flow.rev_fields) with
  | Flow.Outer name, [] ->
    if String.contains name '.' then Some (Paths.demangle name)
    else Some ((ctx_def ctx).Callgraph.unit_module ^ "." ^ strip_stamp name)
  | _ -> None

(* --- the held-lockset walk ------------------------------------------------ *)

type wstate = {
  t : t;
  ctx : Summary.ctx;
  emit : event -> unit;
  w_blocking_ok : bool;
  mutable w_mask : int;       (* catch-all try nesting: masks raise evidence *)
  mutable w_inline : string list;  (* local functions being inlined *)
}

let emit_raise st op site held =
  if st.w_mask = 0 then
    match unprotected held with
    | [] -> ()
    | locks -> st.emit (Raise_evidence { op; site; locks })

let emit_block st op site held =
  if not st.w_blocking_ok then
    match List.map (fun h -> h.h_lock) held with
    | [] -> ()
    | locks -> st.emit (Block_evidence { op; site; locks })

let acquire st held (l : lock) ~protected ~site =
  List.iter
    (fun h -> if same_lock h.h_lock l then st.emit (Reacquire { lock = l; site }))
    held;
  (match l.l_cls with
   | Some c when l.l_kind = Kmod || l.l_kind = Kfield ->
     if l.l_kind = Kmod then st.emit (Mod_lock_seen c);
     List.iter
       (fun h ->
         match (h.h_lock.l_kind, h.h_lock.l_cls) with
         | (Kmod | Kfield), Some hc when not (String.equal hc c) ->
           st.emit (Order_edge { held_cls = hc; acq_cls = c; site })
         | _ -> ())
       held
   | _ -> ());
  held @ [ { h_lock = l; h_protected = protected } ]

let release held (l : lock) =
  let rec go = function
    | [] -> []
    | h :: rest -> if same_lock h.h_lock l then rest else h :: go rest
  in
  go held

(* Branch join: a lock stays held only if every non-diverging branch holds
   it; a diverging branch (raise/exit tail) drops out entirely. *)
let join_branches (branches : (hlock list * bool) list) entry =
  let live = List.filter_map (fun (h, d) -> if d then None else Some h) branches in
  match live with
  | [] -> (entry, true)
  | first :: rest ->
    let kept =
      List.filter
        (fun h ->
          List.for_all
            (fun other -> List.exists (fun h' -> same_lock h.h_lock h'.h_lock) other)
            rest)
        first
    in
    (kept, false)

let note_access st ~cross held ~cls ~kind ~roots ~site ~descr =
  st.emit
    (Access
       { cls;
         kind;
         guards = guards_for held roots;
         crossing = cross;
         fresh = receiver_fresh st.ctx roots;
         site;
         descr })

(* A module-level mutable container used as a call argument (RAC001b). *)
let note_container_arg st ~cross held op_name (a : expression) =
  if Paths.is_mutable_container a.exp_type then
    let roots = Flow.roots st.ctx a in
    List.iter
      (fun r ->
        match outer_container_cls st.ctx r with
        | Some cls ->
          let kind = if is_mutator op_name then Write else Read in
          note_access st ~cross held ~cls ~kind ~roots:[ r ] ~site:a.exp_loc
            ~descr:(pname a)
        | None -> ())
      roots

(* RAC004: does [v] (the Atomic.set payload) read the same atomic? *)
let rec reads_atomic st (aroots : Flow.root list) (v : expression) =
  let overlap roots =
    List.exists (fun r -> List.exists (Flow.overlapping_roots r) aroots) roots
  in
  match v.exp_desc with
  | Texp_ident (Path.Pident id, _, _) -> (
    match atomic_get st.ctx (Ident.unique_name id) with
    | Some a -> overlap (Flow.roots st.ctx a)
    | None -> false)
  | Texp_apply (fn, args) ->
    (match Paths.applied_path fn with
     | Some p when matches atomic_get_names (dname p) -> (
       match actual_of_slot args (Pos 0) with
       | Some a -> overlap (Flow.roots st.ctx a)
       | None -> false)
     | _ -> false)
    || List.exists
         (function _, Some a -> reads_atomic st aroots a | _, None -> false)
         args
  | Texp_construct (_, _, es) | Texp_tuple es -> List.exists (reads_atomic st aroots) es
  | Texp_ifthenelse (c, a, b) ->
    reads_atomic st aroots c || reads_atomic st aroots a
    || (match b with Some b -> reads_atomic st aroots b | None -> false)
  | Texp_let (_, vbs, body) ->
    List.exists (fun vb -> reads_atomic st aroots vb.vb_expr) vbs
    || reads_atomic st aroots body
  | Texp_sequence (a, b) -> reads_atomic st aroots a || reads_atomic st aroots b
  | Texp_field (r, _, _) -> reads_atomic st aroots r
  | _ -> false

let unlocks_in_finally (st : wstate) (fin : expression) : lock list =
  let out = ref [] in
  let body = unwrap_fun fin in
  let expr it (e : expression) =
    (match e.exp_desc with
     | Texp_apply (fn, args) -> (
       match Paths.applied_path fn with
       | Some p when matches unlock_names (dname p) -> (
         match actual_of_slot args (Pos 0) with
         | Some m ->
           Option.iter (fun l -> out := l :: !out)
             (lock_of_expr st.ctx m ~site:e.exp_loc)
         | None -> ())
       | _ -> ())
     | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it body;
  !out

let rec walk st ~cross (held : hlock list) (e : expression) : hlock list * bool =
  match e.exp_desc with
  | Texp_ident _ | Texp_constant _ -> (held, false)
  | Texp_let (_, vbs, body) ->
    let held =
      List.fold_left
        (fun h vb ->
          (* a let-bound local function is walked at its call sites with
             the lockset held *there* (inlining); walking it deferred too
             would double-report its accesses as lock-free *)
          match vb.vb_pat.pat_desc with
          | Tpat_var (id, _)
            when local_fun st.ctx (Ident.unique_name id) <> None -> h
          | _ -> fst (walk st ~cross h vb.vb_expr))
        held vbs
    in
    walk st ~cross held body
  | Texp_sequence (a, b) ->
    let h1, d1 = walk st ~cross held a in
    if d1 then (h1, true) else walk st ~cross h1 b
  | Texp_ifthenelse (c, a, b) ->
    let h, dc = walk st ~cross held c in
    if dc then (h, true)
    else
      let ba = walk st ~cross h a in
      let bb =
        match b with Some b -> walk st ~cross h b | None -> (h, false)
      in
      join_branches [ ba; bb ] h
  | Texp_match (scrut, cases, _) ->
    let h, ds = walk st ~cross held scrut in
    if ds then (h, true)
    else
      let branches =
        List.map
          (fun c ->
            let h', dg =
              match c.c_guard with
              | Some g -> walk st ~cross h g
              | None -> (h, false)
            in
            if dg then (h', true) else walk st ~cross h' c.c_rhs)
          cases
      in
      join_branches branches h
  | Texp_try (b, cases) ->
    let masked = List.exists catch_all_case cases in
    if masked then st.w_mask <- st.w_mask + 1;
    let bb = walk st ~cross held b in
    if masked then st.w_mask <- st.w_mask - 1;
    let branches =
      bb :: List.map (fun c -> walk st ~cross held c.c_rhs) cases
    in
    join_branches branches held
  | Texp_function { cases; _ } ->
    (* deferred closure: runs later, with no inherited locks *)
    List.iter (fun c -> ignore (walk_case st ~cross [] c)) cases;
    (held, false)
  | Texp_apply (fn, args) -> walk_apply st ~cross held e fn args
  | Texp_field (r, _, lbl) ->
    let h, d = walk st ~cross held r in
    (if guarded_record lbl then
       match interesting_field lbl with
       | Some k ->
         (* containers report Use: touching a Hashtbl/Queue through the
            field is a consistency question regardless of direction *)
         note_access st ~cross h ~cls:(field_cls r lbl) ~kind:k
           ~roots:(Flow.roots st.ctx r) ~site:e.exp_loc
           ~descr:(pname r ^ "." ^ lbl.Types.lbl_name)
       | None -> ());
    (h, d)
  | Texp_setfield (r, _, lbl, v) ->
    let h, _ = walk st ~cross held r in
    let h, d = walk st ~cross h v in
    (if guarded_record lbl then
       match interesting_field lbl with
       | Some _ ->
         note_access st ~cross h ~cls:(field_cls r lbl) ~kind:Write
           ~roots:(Flow.roots st.ctx r) ~site:e.exp_loc
           ~descr:(pname r ^ "." ^ lbl.Types.lbl_name)
       | None -> ());
    (h, d)
  | Texp_construct (_, _, es) | Texp_tuple es | Texp_array es ->
    (walk_list st ~cross held es, false)
  | Texp_variant (_, eo) ->
    (Option.fold ~none:held ~some:(fun a -> fst (walk st ~cross held a)) eo, false)
  | Texp_record { fields; extended_expression } ->
    let h = ref held in
    Option.iter (fun e0 -> h := fst (walk st ~cross !h e0)) extended_expression;
    Array.iter
      (function
        | _, Overridden (_, fe) -> h := fst (walk st ~cross !h fe)
        | _, Kept _ -> ())
      fields;
    (!h, false)
  | Texp_while (c, b) ->
    let h, _ = walk st ~cross held c in
    ignore (walk st ~cross h b);
    (h, false)
  | Texp_for (_, _, lo, hi, _, b) ->
    let h, _ = walk st ~cross held lo in
    let h, _ = walk st ~cross h hi in
    ignore (walk st ~cross h b);
    (h, false)
  | Texp_assert (a, _) -> (
    (* assertions are exempt from raise evidence; [assert false] diverges *)
    match a.exp_desc with
    | Texp_construct (_, { Types.cstr_name = "false"; _ }, []) -> (held, true)
    | _ ->
      let h, _ = walk st ~cross held a in
      (h, false))
  | Texp_lazy b ->
    ignore (walk st ~cross [] b);
    (held, false)
  | Texp_letmodule (_, _, _, _, b) -> walk st ~cross held b
  | Texp_letexception (_, b) -> walk st ~cross held b
  | Texp_open (_, b) -> walk st ~cross held b
  | _ -> (held, false)

and walk_case st ~cross held c =
  let h, dg =
    match c.c_guard with Some g -> walk st ~cross held g | None -> (held, false)
  in
  if dg then (h, true) else walk st ~cross h c.c_rhs

and walk_list st ~cross held es =
  List.fold_left (fun h a -> fst (walk st ~cross h a)) held es

(* A literal closure that runs now, within the call's dynamic extent. *)
and run_now st ~cross held (f : expression) =
  match f.exp_desc with
  | Texp_function { cases; _ } ->
    List.iter (fun c -> ignore (walk_case st ~cross held c)) cases
  | _ -> ()

(* Walk argument expressions.  [closures] says what to do with literal
   closure arguments: run `Now (within the call's dynamic extent, current
   held set), `Defer (empty held), or `Cross (empty held, on another
   domain). *)
and walk_args st ~cross held ?(closures = `Defer) ?(op = "") args =
  List.fold_left
    (fun h (_, a) ->
      match a with
      | None -> h
      | Some (a : expression) ->
        if is_fun a then begin
          (match closures with
           | `Now -> run_now st ~cross h a
           | `Defer -> ignore (walk st ~cross [] a)
           | `Cross -> ignore (walk st ~cross:true [] a));
          h
        end
        else begin
          if op <> "" then note_container_arg st ~cross h op a;
          fst (walk st ~cross h a)
        end)
    held args

and walk_apply st ~cross held (e : expression) fn args =
  let site = e.exp_loc in
  (match fn.exp_desc with
   | Texp_ident _ -> ()
   | _ -> ignore (walk st ~cross held fn));
  match Paths.applied_path fn with
  | None ->
    let h = walk_args st ~cross held args in
    emit_raise st "an applied function value" site h;
    (h, false)
  | Some p -> (
    let kind, name = classify st.ctx p in
    match kind with
    | Clock -> (
      match actual_of_slot args (Pos 0) with
      | Some m -> (
        match lock_of_expr st.ctx m ~site with
        | Some l -> (acquire st held l ~protected:false ~site, false)
        | None -> (held, false))
      | None -> (held, false))
    | Cunlock -> (
      match actual_of_slot args (Pos 0) with
      | Some m -> (
        match lock_of_expr st.ctx m ~site with
        | Some l -> (release held l, false)
        | None -> (held, false))
      | None -> (held, false))
    | Cprotect -> (
      (* Mutex.protect m f: m is exception-protected for f's extent *)
      match (actual_of_slot args (Pos 0), actual_of_slot args (Pos 1)) with
      | Some m, Some f -> (
        match lock_of_expr st.ctx m ~site with
        | Some l ->
          let h = acquire st held l ~protected:true ~site in
          (if is_fun f then run_now st ~cross h f
           else
             (* calling an opaque thunk under the new lock: safe for [m]
                (protect reraises after unlock) but still evidence for any
                outer unprotected lock *)
             emit_raise st (pname f) site h);
          (held, false)
        | None ->
          ignore (walk_args st ~cross held ~closures:`Now args);
          (held, false))
      | _ -> (walk_args st ~cross held ~closures:`Now args, false))
    | Cfun_protect ->
      let fin = actual_of_slot args (Lab "finally") in
      let unlocked =
        match fin with Some f -> unlocks_in_finally st f | None -> []
      in
      let marked =
        List.map
          (fun h ->
            if List.exists (fun l -> same_lock h.h_lock l) unlocked then
              { h with h_protected = true }
            else h)
          held
      in
      (match fin with Some f -> ignore (walk st ~cross held (unwrap_fun f)) | None -> ());
      (match actual_of_slot args (Pos 0) with
       | Some thunk when is_fun thunk -> run_now st ~cross marked thunk
       | Some thunk -> emit_raise st (pname thunk) site marked
       | None -> ());
      (* the finally ran on every path: those locks are gone *)
      (List.fold_left release held unlocked, false)
    | Catomic_get -> (walk_args st ~cross held args, false)
    | Catomic_set ->
      (match (actual_of_slot args (Pos 0), actual_of_slot args (Pos 1)) with
       | Some a, Some v ->
         let aroots = Flow.roots st.ctx a in
         (* a payload that IS the saved get (no computation) is the
            save/restore idiom, not a read-modify-write *)
         let pure_restore =
           match v.exp_desc with
           | Texp_ident (Path.Pident id, _, _) ->
             atomic_get st.ctx (Ident.unique_name id) <> None
           | Texp_apply (gfn, gargs) -> (
             match Paths.applied_path gfn with
             | Some gp when matches atomic_get_names (dname gp) ->
               actual_of_slot gargs (Pos 0) <> None
             | _ -> false)
           | _ -> false
         in
         if aroots <> [] && (not pure_restore) && reads_atomic st aroots v then
           st.emit (Torn_rmw { name = pname a; site })
       | _ -> ());
      (walk_args st ~cross held args, false)
    | Ccrossing ->
      let h = walk_args st ~cross held ~closures:`Cross args in
      emit_block st name site h;
      emit_raise st name site h;
      (h, false)
    | Chof -> (walk_hof st ~cross held name args, false)
    | Csafe -> (walk_args st ~cross held ~op:name args, false)
    | Cdiverging ->
      let h = walk_args st ~cross held args in
      emit_raise st name site h;
      (h, true)
    | Cblocking ->
      let h = walk_args st ~cross held args in
      emit_block st name site h;
      emit_raise st name site h;
      (h, false)
    | Clocal_fun key ->
      let h = walk_args st ~cross held args in
      if List.mem key st.w_inline || List.length st.w_inline > 16 then (h, false)
      else begin
        st.w_inline <- key :: st.w_inline;
        let r =
          match local_fun st.ctx key with
          | Some { exp_desc = Texp_function { cases; _ }; _ } ->
            let branches = List.map (walk_case st ~cross h) cases in
            join_branches branches h
          | _ -> (h, false)
        in
        st.w_inline <- List.tl st.w_inline;
        r
      end
    | Cresolved d ->
      let h = walk_args st ~cross held ~op:name args in
      let s = sum st.t.env d in
      if s.raises then emit_raise st (d.Callgraph.qname ^ " (may raise)") site h;
      if s.blocks then emit_block st (d.Callgraph.qname ^ " (may block)") site h;
      (* instantiate the callee's acquisitions against this call *)
      List.iter
        (fun (i, trail, cls) ->
          match actual_of_slot args (Pos i) with
          | Some actual ->
            let roots =
              List.map
                (fun (r : Flow.root) ->
                  { r with Flow.rev_fields = trail @ r.Flow.rev_fields })
                (Flow.roots st.ctx actual)
            in
            List.iter
              (fun hl ->
                if
                  List.exists
                    (fun r ->
                      List.exists (Flow.overlapping_roots r)
                        hl.h_lock.l_roots)
                    roots
                then
                  st.emit
                    (Reacquire
                       { lock =
                           { l_cls = cls; l_kind = Kfield; l_roots = roots;
                             l_name = d.Callgraph.qname; l_site = site };
                         site }))
              h
          | None -> ())
        s.pacq;
      List.iter
        (fun (c, k) ->
          (match k with Kmod -> st.emit (Mod_lock_seen c) | _ -> ());
          List.iter
            (fun hl ->
              match (hl.h_lock.l_kind, hl.h_lock.l_cls) with
              | (Kmod | Kfield), Some hc ->
                if k = Kmod && String.equal hc c then
                  st.emit
                    (Reacquire
                       { lock =
                           { l_cls = Some c; l_kind = Kmod; l_roots = [];
                             l_name = d.Callgraph.qname; l_site = site };
                         site })
                else if not (String.equal hc c) then
                  st.emit (Order_edge { held_cls = hc; acq_cls = c; site })
              | _ -> ())
            h)
        s.acq;
      (h, false)
    | Cunknown ->
      let h = walk_args st ~cross held ~op:name args in
      emit_raise st name site h;
      (h, false))

(* Transparent HOF: literal closures run now under the current held set;
   a named callback resolves through the callgraph; an opaque callback is
   may-raise evidence. *)
and walk_hof st ~cross held name args =
  List.fold_left
    (fun h (_, a) ->
      match a with
      | None -> h
      | Some (a : expression) ->
        if is_fun a then begin
          run_now st ~cross h a;
          h
        end
        else if
          (* a function-typed non-literal argument: the iterator will call
             it now, under the current locks *)
          match Paths.demangled_head a.exp_type with
          | Some ("->", _) -> true
          | _ -> (
            match a.exp_desc with
            | Texp_ident _ -> (
              match (Types.get_desc a.exp_type : Types.type_desc) with
              | Types.Tarrow _ -> true
              | _ -> false)
            | _ -> false)
        then begin
          (match Paths.applied_path a with
           | Some p -> (
             match classify st.ctx p with
             | Cresolved d, _ ->
               let s = sum st.t.env d in
               if s.raises then
                 emit_raise st (d.Callgraph.qname ^ " (may raise)") a.exp_loc h;
               if s.blocks then
                 emit_block st (d.Callgraph.qname ^ " (may block)") a.exp_loc h
             | (Csafe | Chof), _ -> ()
             | _ -> emit_raise st (name ^ " callback") a.exp_loc h)
           | None -> emit_raise st (name ^ " callback") a.exp_loc h);
          h
        end
        else begin
          note_container_arg st ~cross h name a;
          fst (walk st ~cross h a)
        end)
    held args

let walk_def t (d : Callgraph.def) ~emit =
  let st =
    { t;
      ctx = ctx t.env d;
      emit;
      w_blocking_ok = blocking_ok d.Callgraph.def_attrs;
      w_mask = 0;
      w_inline = [] }
  in
  let cross = crossing t d in
  List.iter (fun vb -> ignore (walk st ~cross [] vb.vb_expr)) d.Callgraph.prelude;
  ignore (walk st ~cross [] d.Callgraph.body)

(* --- analyze -------------------------------------------------------------- *)

(* Domain-crossing reachability: grow the seed calls of every definition
   over the resolved-callee edges. *)
let analyze env =
  let cross = Array.make (Callgraph.size (callgraph env)) false in
  let rec grow = function
    | [] -> ()
    | (d : Callgraph.def) :: rest ->
      if cross.(d.Callgraph.id) then grow rest
      else begin
        cross.(d.Callgraph.id) <- true;
        grow (callees (ctx env d) @ rest)
      end
  in
  List.iter (fun d -> grow (seeds (ctx env d))) (Callgraph.defs (callgraph env));
  { env; cross }
