(* RAC001-005 — race, deadlock and lock-discipline diagnostics.

   The {!Lockset} engine does the heavy lifting (per-definition effect
   summaries, domain-crossing reachability, the held-lockset walk); this
   pass is the judge.  Local events (an exception-unsafe critical
   section, a re-acquired mutex, a torn atomic update, blocking under a
   lock) become diagnostics directly.  Two verdicts are global and
   resolved after every definition has been walked:

   - RAC001 convicts a state class (record field or module container) by
     Eraser-style lockset refinement: some access writes, some access
     runs on another domain, and the intersection of guard sets across
     all accesses is empty — and locks are demonstrably in play for that
     class (some access is guarded, or the unit defines a module-level
     mutex).  Code that never locks may synchronize some other way and
     stays out of scope: unknown never convicts.

   - RAC003's second half builds the global lock-order graph from
     acquired-while-holding edges and reports each pair of classes taken
     in both orders, at both sites. *)

module D = Check.Diagnostic

type acc = {
  a_kind : Lockset.access_kind;
  a_guards : Lockset.guard list;
  a_crossing : bool;
  a_site : Location.t;
  a_descr : string;
  a_source : string;
}

(* Findings per source file, each through its own emitter. *)
type t = {
  emitters :
    (string, (rule:string -> location:string -> hint:string -> string -> unit)
             * (unit -> D.t list)) Hashtbl.t;
}

let guard_label = function
  | Lockset.Module_lock c -> c
  | Lockset.Same_instance c -> c ^ " (same instance)"

let unit_prefix cls =
  match String.index_opt cls '.' with
  | Some i -> String.sub cls 0 i
  | None -> cls

let analyze env : t =
  let ls = Lockset.analyze env in
  let t = { emitters = Hashtbl.create 32 } in
  let report source ~rule ~loc ~hint msg =
    let emit, _ =
      match Hashtbl.find_opt t.emitters source with
      | Some e -> e
      | None ->
        let e = Lint_rules.emitter () in
        Hashtbl.replace t.emitters source e;
        e
    in
    emit ~rule ~location:(Srcloc.to_string ~source loc) ~hint msg
  in
  (* first raise-evidence per critical section, keyed by acquisition site *)
  let rac002_seen = Hashtbl.create 16 in
  (* lock-order edges: (held, acquired) class pair -> first witness *)
  let edges : (string * string, string * Location.t) Hashtbl.t =
    Hashtbl.create 16
  in
  let accesses : (string, acc list ref) Hashtbl.t = Hashtbl.create 32 in
  let mod_units = Hashtbl.create 8 in
  let handle source (ev : Lockset.event) =
    match ev with
    | Lockset.Reacquire { lock; site } ->
      report source ~rule:Lint_rules.rac003 ~loc:site
        ~hint:
          "release the mutex before re-acquiring it, or split the helper so \
           the locked region is entered exactly once"
        (Printf.sprintf
          "mutex %s is acquired while already held: stdlib mutexes are \
           non-reentrant, this self-deadlocks"
          lock.Summary.l_name)
    | Lockset.Raise_evidence { op; site = _; locks } ->
      List.iter
        (fun (l : Summary.lock) ->
          let key = source ^ "|" ^ Srcloc.to_string ~source l.Summary.l_site in
          if not (Hashtbl.mem rac002_seen key) then begin
            Hashtbl.add rac002_seen key ();
            report source ~rule:Lint_rules.rac002 ~loc:l.Summary.l_site
              ~hint:
                "wrap the section in Mutex.protect, or Fun.protect \
                 ~finally:(fun () -> Mutex.unlock ...) so every exit path \
                 releases the lock"
              (Printf.sprintf
                "critical section on %s can raise (%s) with the lock \
                 held: an exception leaks the mutex forever"
                l.Summary.l_name op)
          end)
        locks
    | Lockset.Block_evidence { op; site; locks } ->
      let held =
        String.concat ", "
          (List.map (fun (l : Summary.lock) -> l.Summary.l_name) locks)
      in
      report source ~rule:Lint_rules.rac005 ~loc:site
        ~hint:
          "move the blocking call outside the critical section, or mark \
           the binding [@blocking_ok] if IO under this lock is by design"
        (Printf.sprintf
          "blocking call %s while holding %s: every other domain \
           contending for the lock stalls behind this IO"
          op held)
    | Lockset.Order_edge { held_cls; acq_cls; site } ->
      if not (Hashtbl.mem edges (held_cls, acq_cls)) then
        Hashtbl.replace edges (held_cls, acq_cls) (source, site)
    | Lockset.Torn_rmw { name; site } ->
      report source ~rule:Lint_rules.rac004 ~loc:site
        ~hint:
          "use Atomic.fetch_and_add / Atomic.incr / Atomic.decr, or a \
           compare_and_set retry loop"
        (Printf.sprintf
          "torn read-modify-write on atomic %s: Atomic.set of a value \
           derived from Atomic.get loses concurrent updates in between"
          name)
    | Lockset.Access { cls; kind; guards; crossing; fresh; site; descr } ->
      if not fresh then begin
        let entry =
          { a_kind = kind;
            a_guards = guards;
            a_crossing = crossing;
            a_site = site;
            a_descr = descr;
            a_source = source }
        in
        match Hashtbl.find_opt accesses cls with
        | Some l -> l := entry :: !l
        | None -> Hashtbl.replace accesses cls (ref [ entry ])
      end
    | Lockset.Mod_lock_seen c -> Hashtbl.replace mod_units (unit_prefix c) ()
  in
  List.iter
    (fun (d : Callgraph.def) ->
      Lockset.walk_def ls d ~emit:(handle d.Callgraph.source))
    (Callgraph.defs (Summary.callgraph env));

  (* RAC003, global half: lock-order inversions. *)
  Hashtbl.iter
    (fun (a, b) (source, site) ->
      if String.compare a b < 0 then
        match Hashtbl.find_opt edges (b, a) with
        | Some (source', site') ->
          let inversion src loc first second =
            report src ~rule:Lint_rules.rac003 ~loc
              ~hint:
                "pick one acquisition order for this lock pair and document \
                 it in DESIGN.md's lock-order hierarchy"
              (Printf.sprintf
                "lock-order inversion: %s and %s are acquired in both \
                 orders across the program (here %s is taken while %s is \
                 held): two domains can deadlock"
                a b second first)
          in
          inversion source site a b;
          inversion source' site' b a
        | None -> ())
    edges;

  (* RAC001, global half: Eraser-style lockset refinement per class. *)
  Hashtbl.iter
    (fun cls accs ->
      let accs = !accs in
      let writes =
        List.exists
          (fun a -> match a.a_kind with
             | Lockset.Write | Lockset.Use -> true
             | Lockset.Read -> false)
          accs
      in
      let crossing = List.exists (fun a -> a.a_crossing) accs in
      let guarded_some = List.exists (fun a -> a.a_guards <> []) accs in
      let eligible = guarded_some || Hashtbl.mem mod_units (unit_prefix cls) in
      let common =
        match accs with
        | [] -> []
        | first :: rest ->
          List.filter
            (fun g -> List.for_all (fun a -> List.mem g a.a_guards) rest)
            first.a_guards
      in
      if writes && crossing && eligible && common = [] then begin
        let usual =
          (* the guard most accesses do hold, for the message *)
          let tally = Hashtbl.create 4 in
          List.iter
            (fun a ->
              List.iter
                (fun g ->
                  Hashtbl.replace tally g
                    (1 + Option.value ~default:0 (Hashtbl.find_opt tally g)))
                a.a_guards)
            accs;
          Hashtbl.fold
            (fun g n best ->
              match best with
              | Some (_, bn) when bn >= n -> best
              | _ -> Some (g, n))
            tally None
        in
        let sites =
          match List.filter (fun a -> a.a_guards = []) accs with
          | [] -> accs (* disjoint guard sets: every site is part of the bug *)
          | unguarded -> unguarded
        in
        let sites = List.filteri (fun i _ -> i < 3) (List.rev sites) in
        List.iter
          (fun a ->
            report a.a_source ~rule:Lint_rules.rac001 ~loc:a.a_site
              ~hint:
                "hold the same mutex at every access to this state, or \
                 make it an Atomic.t"
              (Printf.sprintf
                "shared mutable state %s (class %s) is reachable from a \
                 domain-crossing closure but %s here%s"
                a.a_descr cls
                (match a.a_kind with
                 | Lockset.Write -> "written without its lock"
                 | Lockset.Use -> "mutated without its lock"
                 | Lockset.Read -> "read without its lock")
                (match usual with
                 | Some (g, _) ->
                   Printf.sprintf " (guarded elsewhere by %s)"
                     (guard_label g)
                 | None -> "")))
          sites
      end)
    accesses;
  t

let check t ~source : D.t list =
  match Hashtbl.find_opt t.emitters source with
  | Some (_, findings) -> findings ()
  | None -> []
