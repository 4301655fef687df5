(* The linter's own test, mirroring `subscale check --selftest` /
   `audit --selftest`: one crafted source per rule that must fire exactly
   that rule, one near-miss per rule that must come back clean, plus the
   rule-registry collision checks.

   Crafted sources are compiled at runtime with `ocamlc -bin-annot` into a
   temp directory — the same artifact path the real lint takes, so the
   selftest exercises cmt reading, not a shortcut. *)

module D = Check.Diagnostic

type result = { name : string; ok : bool; detail : string }

(* (name, expected-rule, must-fire, source) — near-misses expect *no*
   diagnostics at all, firing cases expect only their own rule. *)
let cases =
  [ ( "LNT001 closure mutates captured ref",
      Lint_rules.lnt001,
      true,
      "module Exec = struct let map f xs = List.map f xs end\n\
       let total xs =\n\
      \  let acc = ref 0.0 in\n\
      \  let _ = Exec.map (fun x -> acc := !acc +. x; x) xs in\n\
      \  !acc\n" );
    ( "LNT001 closure captures Hashtbl via Pool.map",
      Lint_rules.lnt001,
      true,
      "module Pool = struct let map _pool f xs = List.map f xs end\n\
       let tally pool tbl xs = Pool.map pool (fun x -> Hashtbl.add tbl x x; x) xs\n" );
    ( "LNT001 near miss: immutable capture, closure-local ref",
      Lint_rules.lnt001,
      false,
      "module Exec = struct let map f xs = List.map f xs end\n\
       let scaled scale xs =\n\
      \  Exec.map (fun x -> let acc = ref (x *. scale) in acc := !acc +. 1.0; !acc) xs\n" );
    (* One case per LNT001 behaviour documented in DESIGN.md section 5. *)
    ( "LNT001 read-only capture of a flat buffer",
      Lint_rules.lnt001,
      true,
      "module Exec = struct let map f xs = List.map f xs end\n\
       let sample (v : (float, Bigarray.float64_elt, Bigarray.c_layout) \
       Bigarray.Array1.t) xs =\n\
      \  Exec.map (fun i -> Bigarray.Array1.get v i) xs\n" );
    ( "LNT001 mutation through a let alias of a captured array",
      Lint_rules.lnt001,
      true,
      "module Exec = struct let map f xs = List.map f xs end\n\
       let clear (outer : float array) xs =\n\
      \  Exec.map (fun i -> let a = outer in a.(i) <- 0.0; i) xs\n" );
    ( "LNT001 mutation with no identifier root",
      Lint_rules.lnt001,
      true,
      "module Exec = struct let map f xs = List.map f xs end\n\
       type cell = { mutable v : float }\n\
       let reset (f : int -> cell) xs = Exec.map (fun i -> (f i).v <- 0.0; i) xs\n" );
    ( "LNT001 Array.blit whose captured array is only the source",
      Lint_rules.lnt001,
      true,
      "module Exec = struct let map f xs = List.map f xs end\n\
       let copies (src : float array) xs =\n\
      \  Exec.map (fun n -> let dst = Array.make n 0.0 in Array.blit src 0 dst 0 n; dst) xs\n" );
    ( "LNT001 read-only Queue, Stack and Buffer captures",
      Lint_rules.lnt001,
      true,
      "module Exec = struct let map f xs = List.map f xs end\n\
       let sizes (q : int Queue.t) (s : int Stack.t) (b : Buffer.t) xs =\n\
      \  Exec.map (fun x -> Queue.length q + Stack.length s + Buffer.length b + x) xs\n" );
    ( "LNT001 near miss: Atomic.t capture, fresh array copy",
      Lint_rules.lnt001,
      false,
      "module Exec = struct let map f xs = List.map f xs end\n\
       let count (hits : int Atomic.t) (outer : float array) xs =\n\
      \  Exec.map (fun i -> Atomic.incr hits; let a = Array.copy outer in a.(i) <- 0.0; i) xs\n" );
    ( "LNT001 near miss: state reached through Obs.",
      Lint_rules.lnt001,
      false,
      "module Exec = struct let map f xs = List.map f xs end\n\
       module Obs = struct let hits = ref 0 end\n\
       let count xs = Exec.map (fun x -> incr Obs.hits; x) xs\n" );
    ( "LNT002 polymorphic = on floats",
      Lint_rules.lnt002,
      true,
      "let approx (a : float) (b : float) = a = b\n" );
    ( "LNT002 near miss: Float.equal and int =",
      Lint_rules.lnt002,
      false,
      "let approx (a : float) (b : float) = Float.equal a b\n\
       let same (a : int) (b : int) = a = b\n" );
    ( "LNT003 catch-all try swallows exceptions",
      Lint_rules.lnt003,
      true,
      "let safe f = try f () with _ -> 0\n" );
    ( "LNT003 near miss: named exception / re-raise",
      Lint_rules.lnt003,
      false,
      "let safe f = try f () with Not_found -> 0\n\
       let cleanup f = try f () with e -> ignore (f ()); raise e\n" );
    ( "LNT004 literal rule id bypasses the registry",
      Lint_rules.lnt004,
      true,
      "module Diagnostic = struct let error ~rule ~location m = (rule, location, m) end\n\
       let d = Diagnostic.error ~rule:\"XXX999\" ~location:\"here\" \"boom\"\n" );
    ( "LNT004 near miss: rule id via identifier",
      Lint_rules.lnt004,
      false,
      "module Diagnostic = struct let error ~rule ~location m = (rule, location, m) end\n\
       let registered = \"XXX999\"\n\
       let d = Diagnostic.error ~rule:registered ~location:\"here\" \"boom\"\n" );
    ( "LNT005 direct print_endline in library code",
      Lint_rules.lnt005,
      true,
      "let shout () = print_endline \"hello\"\n" );
    ( "LNT005 near miss: buffer + sprintf",
      Lint_rules.lnt005,
      false,
      "let shout buf = Buffer.add_string buf (Printf.sprintf \"%d\" 42)\n" );
    ( "LNT006 ordering on an 'a array element",
      Lint_rules.lnt006,
      true,
      "let sorted xs =\n\
      \  let ok = ref true in\n\
      \  for i = 0 to Array.length xs - 2 do if xs.(i + 1) <= xs.(i) then ok := false done;\n\
      \  !ok\n" );
    ( "LNT006 near miss: annotated float array, Float.compare, int max",
      Lint_rules.lnt006,
      false,
      "let sorted (xs : float array) =\n\
      \  let ok = ref true in\n\
      \  for i = 0 to Array.length xs - 2 do if xs.(i + 1) <= xs.(i) then ok := false done;\n\
      \  !ok\n\
       let first_below xs v = Array.exists (fun x -> Float.compare x v < 0) xs\n\
       let widest (a : int) b = max a b\n" );
    (* The UNT crafted sources define local modules shaped like the real
       libraries (Params, Constants, Silicon), which the signature tables
       match by path suffix — the same route the fixture corpus takes. *)
    ( "UNT001 length added to voltage",
      Lint_rules.unt001,
      true,
      "module Params = struct type physical = { lpoly : float; vdd : float } end\n\
       let bad (p : Params.physical) = p.Params.lpoly +. p.Params.vdd\n" );
    ( "UNT001 near miss: like dimensions, literals, unknowns",
      Lint_rules.unt001,
      false,
      "module Params = struct type physical = { lpoly : float; tox : float } end\n\
       let good (p : Params.physical) = p.Params.lpoly +. p.Params.tox\n\
       let offset (p : Params.physical) = p.Params.lpoly +. 1e-9\n\
       let opaque (p : Params.physical) x = p.Params.lpoly +. x\n" );
    ( "UNT002 exp of an un-normalized voltage",
      Lint_rules.unt002,
      true,
      "module Params = struct type physical = { vdd : float } end\n\
       let bad (p : Params.physical) = exp p.Params.vdd\n" );
    ( "UNT002 near miss: normalized exponent",
      Lint_rules.unt002,
      false,
      "module Params = struct type physical = { vdd : float } end\n\
       module Constants = struct let vt_room = 0.02585 end\n\
       let good (p : Params.physical) = exp (p.Params.vdd /. Constants.vt_room)\n" );
    ( "UNT003 nm-scaled length mixed with SI",
      Lint_rules.unt003,
      true,
      "module Params = struct type physical = { lpoly : float; tox : float } end\n\
       module Constants = struct let to_nm x = x *. 1e9 end\n\
       let bad (p : Params.physical) = Constants.to_nm p.Params.lpoly +. p.Params.tox\n" );
    ( "UNT003 near miss: both sides converted",
      Lint_rules.unt003,
      false,
      "module Params = struct type physical = { lpoly : float; tox : float } end\n\
       module Constants = struct let to_nm x = x *. 1e9 end\n\
       let good (p : Params.physical) =\n\
      \  Constants.to_nm p.Params.lpoly +. Constants.to_nm p.Params.tox\n" );
    ( "UNT004 voltage passed where doping belongs",
      Lint_rules.unt004,
      true,
      "module Params = struct type physical = { vdd : float } end\n\
       module Silicon = struct let fermi_potential n = n end\n\
       let bad (p : Params.physical) = Silicon.fermi_potential p.Params.vdd\n" );
    ( "UNT004 near miss: argument matches the table",
      Lint_rules.unt004,
      false,
      "module Params = struct type physical = { nsub : float } end\n\
       module Silicon = struct let fermi_potential n = n end\n\
       let good (p : Params.physical) = Silicon.fermi_potential p.Params.nsub\n" );
    ( "UNT005 dimension lost through List.map",
      Lint_rules.unt005,
      true,
      "module Params = struct type physical = { vdd : float } end\n\
       let bad (p : Params.physical) (xs : float list) =\n\
      \  List.map (fun dv -> p.Params.vdd +. dv) xs\n" );
    ( "UNT005 near miss: dimensionless closure body",
      Lint_rules.unt005,
      false,
      "let good (xs : float list) = List.map (fun dv -> dv *. 2.0) xs\n" );
    (* The ALS crafted sources define Bigarray-backed local modules shaped
       like the hot path (Fvec, Poisson.scratch); the interprocedural
       summaries resolve the helpers within the unit. *)
    ( "ALS001 closure mutates buffer via captured record and helper",
      Lint_rules.als001,
      true,
      "module Exec = struct let map f xs = List.map f xs end\n\
       type acc = { buf : (float, Bigarray.float64_elt, Bigarray.c_layout) \
       Bigarray.Array1.t }\n\
       let bump (a : acc) x = Bigarray.Array1.set a.buf 0 x\n\
       let run (a : acc) xs = Exec.map (fun x -> bump a x; x) xs\n" );
    (* [rows] is an external here, so no summary sees into it: only the
       primitive table can say that it returns the system's own buffers. *)
    ( "ALS001 closure writes a shared scratch through Stencil5.rows",
      Lint_rules.als001,
      true,
      "module Exec = struct let map f xs = List.map f xs end\n\
       module Stencil5 = struct\n\
      \  type rows = { diag : (float, Bigarray.float64_elt, Bigarray.c_layout) \
       Bigarray.Array1.t }\n\
      \  type t = rows\n\
      \  external rows : t -> rows = \"%identity\"\n\
       end\n\
       module Poisson = struct type scratch = { sys : Stencil5.t } end\n\
       type job = { scratch : Poisson.scratch; gate : float }\n\
       let run (j : job) xs =\n\
      \  Exec.map\n\
      \    (fun x ->\n\
      \      let r = Stencil5.rows j.scratch.Poisson.sys in\n\
      \      Bigarray.Array1.set r.Stencil5.diag 0 (x +. j.gate); x)\n\
      \    xs\n" );
    ( "ALS001 near miss: closure-local buffer",
      Lint_rules.als001,
      false,
      "module Exec = struct let map f xs = List.map f xs end\n\
       type acc = { buf : (float, Bigarray.float64_elt, Bigarray.c_layout) \
       Bigarray.Array1.t }\n\
       let bump (a : acc) x = Bigarray.Array1.set a.buf 0 x\n\
       let run xs =\n\
      \  Exec.map\n\
      \    (fun x ->\n\
      \      let a = { buf = Bigarray.Array1.create Bigarray.float64 \
       Bigarray.c_layout 4 } in\n\
      \      bump a x; x)\n\
      \    xs\n" );
    ( "ALS002 scratch stored into a long-lived ref",
      Lint_rules.als002,
      true,
      "module Poisson = struct\n\
      \  type scratch = { sys : (float, Bigarray.float64_elt, Bigarray.c_layout) \
       Bigarray.Array1.t }\n\
       end\n\
       let cache : Poisson.scratch option ref = ref None\n\
       let stash (s : Poisson.scratch) = cache := Some s\n" );
    ( "ALS002 near miss: scratch threaded sequentially",
      Lint_rules.als002,
      false,
      "module Poisson = struct\n\
      \  type scratch = { sys : (float, Bigarray.float64_elt, Bigarray.c_layout) \
       Bigarray.Array1.t }\n\
      \  let relax (s : scratch) = Bigarray.Array1.set s.sys 0 1.0\n\
       end\n\
       let sweep (s : Poisson.scratch) = Poisson.relax s; Poisson.relax s\n" );
    ( "ALS003 blit with aliasing src and dst",
      Lint_rules.als003,
      true,
      "module Fvec = struct\n\
      \  type t = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t\n\
      \  let blit (src : t) (dst : t) = Bigarray.Array1.blit src dst\n\
       end\n\
       let refresh (v : Fvec.t) = Fvec.blit v v\n" );
    ( "ALS003 near miss: distinct buffers",
      Lint_rules.als003,
      false,
      "module Fvec = struct\n\
      \  type t = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t\n\
      \  let blit (src : t) (dst : t) = Bigarray.Array1.blit src dst\n\
       end\n\
       let refresh (src : Fvec.t) (dst : Fvec.t) = Fvec.blit src dst\n" );
    ( "ALS004 returned buffer also retained in a ref",
      Lint_rules.als004,
      true,
      "let last : (float, Bigarray.float64_elt, Bigarray.c_layout) \
       Bigarray.Array1.t option ref = ref None\n\
       let make n =\n\
      \  let v = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in\n\
      \  last := Some v;\n\
      \  v\n" );
    ( "ALS004 near miss: [@owned] asserts deliberate sharing",
      Lint_rules.als004,
      false,
      "let last : (float, Bigarray.float64_elt, Bigarray.c_layout) \
       Bigarray.Array1.t option ref = ref None\n\
       let[@owned] make n =\n\
      \  let v = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in\n\
      \  last := Some v;\n\
      \  v\n" );
    (* The RAC crafted sources exercise the lockset engine end to end:
       guarded vs unguarded accesses to the same state class, protected
       vs bare critical sections, interprocedural re-acquisition through
       effect summaries, and the save/restore exemption for atomics. *)
    ( "RAC001 field read in crossing closure, guarded write elsewhere",
      Lint_rules.rac001,
      true,
      "module Exec = struct let map f xs = List.map f xs end\n\
       type t = { lock : Mutex.t; mutable count : int }\n\
       let bump (t : t) =\n\
      \  Mutex.lock t.lock; t.count <- t.count + 1; Mutex.unlock t.lock\n\
       let total (t : t) xs = Exec.map (fun x -> x + t.count) xs\n" );
    ( "RAC001 near miss: same lock at every access",
      Lint_rules.rac001,
      false,
      "module Exec = struct let map f xs = List.map f xs end\n\
       type t = { lock : Mutex.t; mutable count : int }\n\
       let bump (t : t) =\n\
      \  Mutex.lock t.lock; t.count <- t.count + 1; Mutex.unlock t.lock\n\
       let total (t : t) xs =\n\
      \  Exec.map\n\
      \    (fun x ->\n\
      \      Mutex.lock t.lock;\n\
      \      let c = t.count in\n\
      \      Mutex.unlock t.lock;\n\
      \      x + c)\n\
      \    xs\n" );
    ( "RAC002 unknown callee inside a bare critical section",
      Lint_rules.rac002,
      true,
      "let lock = Mutex.create ()\n\
       let risky f =\n\
      \  Mutex.lock lock;\n\
      \  let r = f () in\n\
      \  Mutex.unlock lock;\n\
      \  r\n" );
    ( "RAC002 near miss: Mutex.protect releases on any exit",
      Lint_rules.rac002,
      false,
      "let lock = Mutex.create ()\n\
       let safe f = Mutex.protect lock (fun () -> f ())\n" );
    ( "RAC003 helper re-acquires the caller's mutex",
      Lint_rules.rac003,
      true,
      "let lock = Mutex.create ()\n\
       let helper () = Mutex.lock lock; Mutex.unlock lock\n\
       let outer () = Mutex.lock lock; helper (); Mutex.unlock lock\n" );
    ( "RAC003 near miss: released before the helper runs",
      Lint_rules.rac003,
      false,
      "let lock = Mutex.create ()\n\
       let helper () = Mutex.lock lock; Mutex.unlock lock\n\
       let outer () = Mutex.lock lock; Mutex.unlock lock; helper ()\n" );
    ( "RAC004 Atomic.set of a value derived from Atomic.get",
      Lint_rules.rac004,
      true,
      "let hits = Atomic.make 0\n\
       let bump () = Atomic.set hits (Atomic.get hits + 1)\n" );
    ( "RAC004 near miss: fetch_and_add and pure save/restore",
      Lint_rules.rac004,
      false,
      "let hits = Atomic.make 0\n\
       let bump () = ignore (Atomic.fetch_and_add hits 1)\n\
       let with_reset f =\n\
      \  let saved = Atomic.get hits in\n\
      \  f ();\n\
      \  Atomic.set hits saved\n" );
    ( "RAC005 rename on disk while holding the lock",
      Lint_rules.rac005,
      true,
      "let lock = Mutex.create ()\n\
       let save path =\n\
      \  Mutex.protect lock (fun () -> Sys.rename path (path ^ \".bak\"))\n" );
    ( "RAC005 near miss: [@blocking_ok] sanctions IO under this lock",
      Lint_rules.rac005,
      false,
      "let lock = Mutex.create ()\n\
       let[@blocking_ok] save path =\n\
      \  Mutex.protect lock (fun () -> Sys.rename path (path ^ \".bak\"))\n" ) ]

let make_temp_dir () =
  let path = Filename.temp_file "subscale_lint_selftest" "" in
  Sys.remove path;
  Sys.mkdir path 0o700;
  path

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

(* Compile one crafted source and lint its .cmt; [Error] carries a
   human-readable reason (compiler missing, unexpected diagnostics...).
   The crafted sources define their helpers locally, so a single-unit
   engine resolves them. *)
let lint_snippet ~lint ~dir ~index source =
  let base = Printf.sprintf "selftest_case_%d" index in
  let ml = Filename.concat dir (base ^ ".ml") in
  write_file ml source;
  let cmd =
    Filename.quote_command "ocamlc" [ "-bin-annot"; "-w"; "-a"; "-c"; ml; "-I"; dir ]
  in
  if Sys.command cmd <> 0 then Error ("compilation failed: " ^ cmd)
  else
    match Cmt_load.load (Filename.concat dir (base ^ ".cmt")) with
    | Cmt_load.Unit u -> Ok (lint u)
    | Cmt_load.Skipped -> Error "crafted cmt skipped"
    | Cmt_load.Unreadable (_, msg) -> Error ("crafted cmt unreadable: " ^ msg)

let registry_results () =
  let collision_free =
    match Check.Rules.selftest () with
    | n -> { name = "rule-id registry"; ok = true; detail = Printf.sprintf "%d unique rule id(s)" n }
    | exception ((Check.Rules.Duplicate_rule _ | Failure _) as e) ->
      { name = "rule-id registry"; ok = false; detail = Printexc.to_string e }
  in
  let duplicate_rejected =
    match Check.Rules.register ~summary:"deliberate collision" Lint_rules.lnt001 with
    | (_ : string) ->
      { name = "duplicate LNT id rejected"; ok = false;
        detail = "re-registration of LNT001 was accepted" }
    | exception Check.Rules.Duplicate_rule _ ->
      { name = "duplicate LNT id rejected"; ok = true; detail = "Duplicate_rule" }
  in
  let unit_table =
    match Unit_sig.selftest () with
    | n ->
      { name = "unit signature table"; ok = true;
        detail = Printf.sprintf "%d seeded entr(ies)" n }
    | exception ((Failure _ | Invalid_argument _) as e) ->
      { name = "unit signature table"; ok = false; detail = Printexc.to_string e }
  in
  [ collision_free; duplicate_rejected; unit_table ]

let run ~lint =
  let dir = make_temp_dir () in
  let case_results =
    List.mapi
      (fun index (name, rule, must_fire, source) ->
        match lint_snippet ~lint ~dir ~index source with
        | Error detail -> { name; ok = false; detail }
        | Ok diags ->
          let fired = List.exists (fun d -> d.D.rule = rule) diags in
          let isolated = List.for_all (fun d -> d.D.rule = rule) diags in
          if must_fire then
            if fired && isolated then { name; ok = true; detail = rule }
            else
              { name; ok = false;
                detail =
                  Printf.sprintf "expected only %s, got [%s]" rule
                    (String.concat "; " (List.map D.to_string diags)) }
          else if diags = [] then { name; ok = true; detail = "clean" }
          else
            { name; ok = false;
              detail =
                Printf.sprintf "expected clean, got [%s]"
                  (String.concat "; " (List.map D.to_string diags)) })
      cases
  in
  registry_results () @ case_results
