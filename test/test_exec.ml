(* The parallel execution subsystem: pool ordering and exception semantics,
   memo-table accounting and key sensitivity, and the differential harness
   proving that every --jobs setting produces bit-identical results. *)

open Test_util
module Exec = Subscale.Exec
module Pool = Subscale.Exec.Pool
module Memo = Subscale.Exec.Memo
module P = Subscale.Device.Params

let with_pool ~domains f =
  let pool = Pool.create ~domains in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let restore_jobs f =
  let before = Exec.jobs () in
  Fun.protect ~finally:(fun () -> Exec.set_jobs before) f

(* --- Pool ----------------------------------------------------------- *)

let test_pool_order () =
  with_pool ~domains:4 (fun pool ->
      let xs = List.init 200 Fun.id in
      let f x = (3 * x) + 1 in
      Alcotest.(check (list int)) "in input order" (List.map f xs) (Pool.map pool xs f);
      Alcotest.(check int) "domains" 4 (Pool.domains pool);
      Alcotest.(check int) "spawned workers" 3 (Pool.spawned pool))

let test_pool_one_domain () =
  with_pool ~domains:1 (fun pool ->
      Alcotest.(check int) "no workers spawned" 0 (Pool.spawned pool);
      Alcotest.(check (list int)) "still maps" [ 2; 4; 6 ]
        (Pool.map pool [ 1; 2; 3 ] (fun x -> 2 * x)))

(* A spawned worker runs on the task-sized minor heap, 32k words
   (Pool.task_minor_heap_words); the caller's domain keeps its own.
   The two items meet at a barrier, so neither returns before the other
   has started: the caller runs one and the worker must run the other.
   The wait is bounded, so a worker that never came fails the case
   instead of hanging it. *)
let test_pool_worker_heap () =
  let caller = (Gc.get ()).Gc.minor_heap_size in
  let meet arrived _ =
    Atomic.incr arrived;
    let deadline = Unix.gettimeofday () +. 30.0 in
    while Atomic.get arrived < 2 && Unix.gettimeofday () < deadline do
      Domain.cpu_relax ()
    done;
    (Atomic.get arrived = 2, (Gc.get ()).Gc.minor_heap_size)
  in
  with_pool ~domains:2 (fun pool ->
      let results = Pool.map pool [ 0; 1 ] (meet (Atomic.make 0)) in
      Alcotest.(check (list bool)) "both items met" [ true; true ] (List.map fst results);
      Alcotest.(check (list int)) "one item on the worker, one on the caller"
        (List.sort compare [ 32 * 1024; caller ])
        (List.sort compare (List.map snd results)));
  Alcotest.(check int) "caller's heap unchanged" caller (Gc.get ()).Gc.minor_heap_size;
  with_pool ~domains:1 (fun pool ->
      Alcotest.(check int) "one domain spawns no worker" 0 (Pool.spawned pool);
      Alcotest.(check (list int)) "so every item runs on the caller's heap" [ caller; caller ]
        (Pool.map pool [ 0; 1 ] (fun _ -> (Gc.get ()).Gc.minor_heap_size)))

let test_pool_edges () =
  with_pool ~domains:3 (fun pool ->
      Alcotest.(check (list int)) "empty" [] (Pool.map pool [] (fun x -> x));
      Alcotest.(check (list int)) "singleton" [ 49 ] (Pool.map pool [ 7 ] (fun x -> x * x)))

let test_pool_exception () =
  with_pool ~domains:4 (fun pool ->
      let f x = if x mod 5 = 3 then failwith (Printf.sprintf "boom %d" x) else x * x in
      let xs = List.init 30 Fun.id in
      let outcome map = try Ok (map xs f) with Failure m -> Error m in
      let seq = outcome (fun xs f -> List.map f xs) in
      let par = outcome (Pool.map pool) in
      Alcotest.(check (result (list int) string))
        "same exception as List.map (lowest index)" seq par;
      Alcotest.(check (result (list int) string)) "raised at index 3" (Error "boom 3") par;
      (* The failed job must not poison the pool. *)
      Alcotest.(check (list int)) "pool survives" (List.map succ xs)
        (Pool.map pool xs succ))

let test_pool_shutdown () =
  let pool = Pool.create ~domains:2 in
  Pool.shutdown pool;
  Pool.shutdown pool;
  match Pool.map pool [ 1 ] Fun.id with
  | _ -> Alcotest.fail "map on a shut-down pool should raise"
  | exception Invalid_argument _ -> ()

(* Random pool widths x random work lists (empty, singleton, lengths not
   divisible by the domain count): Pool.map must agree with List.map in
   order, propagate the same exception, and stay usable afterwards. *)
let prop_pool_differential =
  prop "Pool.map = List.map (order, exceptions, survival)" ~count:50
    QCheck2.Gen.(pair (1 -- 8) (list_size (0 -- 13) (int_range (-40) 40)))
    (fun (domains, xs) ->
      with_pool ~domains (fun pool ->
          let total x = (2 * x) + 1 in
          let partial x = if x < 0 then failwith ("neg " ^ string_of_int x) else x + 1 in
          let outcome map f = try Ok (map f xs) with Failure m -> Error m in
          Pool.map pool xs total = List.map total xs
          && outcome (fun f xs' -> Pool.map pool xs' f) partial
             = outcome (fun f xs' -> List.map f xs') partial
          && Pool.map pool xs total = List.map total xs))

(* Exec.map is the pool behind a process-wide jobs setting; nested calls
   must fall back to sequential instead of deadlocking. *)
let test_exec_map_nested () =
  restore_jobs (fun () ->
      Exec.set_jobs 4;
      let inner x = Exec.map (fun y -> x + y) [ 10; 20 ] in
      let nested = Exec.map inner [ 1; 2; 3 ] in
      Alcotest.(check (list (list int)))
        "nested maps agree with List.map"
        (List.map (fun x -> List.map (fun y -> x + y) [ 10; 20 ]) [ 1; 2; 3 ])
        nested)

(* The pool is a cost only a real fan-out pays: an empty or one-item map
   is [List.map], whatever the job count. *)
let test_exec_map_short_lists () =
  restore_jobs (fun () ->
      Exec.set_jobs 2;
      let fanouts () = counter_value "exec.map.fanouts" in
      let before = fanouts () in
      Alcotest.(check (list int)) "empty" [] (Exec.map succ []);
      Alcotest.(check (list int)) "singleton" [ 8 ] (Exec.map succ [ 7 ]);
      Alcotest.(check int) "no fan-out" before (fanouts ());
      Alcotest.(check (list int)) "pair" [ 2; 3 ] (Exec.map succ [ 1; 2 ]);
      Alcotest.(check int) "two items fan out once" (before + 1) (fanouts ()))

(* --- Memo ----------------------------------------------------------- *)

let stat name =
  match List.find_opt (fun (s : Memo.stats) -> s.Memo.name = name) (Memo.stats ()) with
  | Some s -> s
  | None -> Alcotest.failf "no memo table named %s" name

let test_memo_counters () =
  let t : int Memo.t = Memo.create ~name:"test.counters" () in
  let calls = ref 0 in
  let compute () = incr calls; 41 + !calls in
  Alcotest.(check int) "first compute" 42 (Memo.find_or_compute t ~key:"a" compute);
  Alcotest.(check int) "miss recorded" 1 (Memo.misses t);
  Alcotest.(check int) "no hit yet" 0 (Memo.hits t);
  Alcotest.(check int) "cached value" 42 (Memo.find_or_compute t ~key:"a" compute);
  Alcotest.(check int) "hit recorded" 1 (Memo.hits t);
  Alcotest.(check int) "computed once" 1 !calls;
  Alcotest.(check int) "second key misses" 43 (Memo.find_or_compute t ~key:"b" compute);
  Alcotest.(check int) "two entries" 2 (Memo.size t);
  Memo.clear t;
  Alcotest.(check int) "clear empties" 0 (Memo.size t);
  Alcotest.(check int) "clear resets hits" 0 (Memo.hits t)

(* [find] is a pure lookup: a miss counts nothing, and only the compute
   step that follows it records the miss. *)
let test_memo_find () =
  let t : int Memo.t = Memo.create ~name:"test.find" () in
  (* hits, store hits, misses, size *)
  let counts () = [ Memo.hits t; Memo.store_hits t; Memo.misses t; Memo.size t ] in
  Alcotest.(check (option int)) "miss" None (Memo.find t ~key:"a");
  Alcotest.(check (list int)) "a find miss changes no counter" [ 0; 0; 0; 0 ] (counts ());
  Alcotest.(check int) "compute" 5 (Memo.compute t ~key:"a" (fun () -> 5));
  Alcotest.(check (list int)) "the compute step counts the miss" [ 0; 0; 1; 1 ] (counts ());
  Alcotest.(check (option int)) "hit" (Some 5) (Memo.find t ~key:"a");
  Alcotest.(check (list int)) "a find hit counts a hit" [ 1; 0; 1; 1 ] (counts ())

let test_memo_disabled () =
  let t : int Memo.t = Memo.create ~name:"test.disabled" () in
  let calls = ref 0 in
  let compute () = incr calls; !calls in
  Memo.disabled (fun () ->
      Alcotest.(check bool) "reports disabled" false (Memo.enabled ());
      ignore (Memo.find_or_compute t ~key:"k" compute);
      ignore (Memo.find_or_compute t ~key:"k" compute));
  Alcotest.(check int) "computed every time" 2 !calls;
  Alcotest.(check int) "nothing cached" 0 (Memo.size t);
  Alcotest.(check int) "no accounting" 0 (Memo.hits t + Memo.misses t);
  Alcotest.(check bool) "re-enabled" true (Memo.enabled ())

(* Changing any single field of the device parameters must change the
   content key, even by one ulp — keys are bit-exact, not printf-rounded. *)
let test_physical_key_sensitivity () =
  let base = List.hd P.paper_table2 in
  let bump f = f *. (1.0 +. 1e-15) in
  let variants =
    [ { base with P.node_nm = base.P.node_nm + 1 };
      { base with P.lpoly = bump base.P.lpoly };
      { base with P.tox = bump base.P.tox };
      { base with P.nsub = bump base.P.nsub };
      { base with P.np_halo = bump base.P.np_halo +. 1.0 };
      { base with P.vdd = bump base.P.vdd };
      { base with P.xj = Some 2e-8 };
      { base with P.overlap = Some 1e-9 } ]
  in
  let keys = P.physical_key base :: List.map P.physical_key variants in
  Alcotest.(check int) "all 9 keys distinct" (List.length keys)
    (List.length (List.sort_uniq compare keys));
  let cal = P.default_calibration in
  Alcotest.(check bool) "calibration field changes key" false
    (P.calibration_key cal = P.calibration_key { cal with P.k_halo = bump cal.P.k_halo });
  Alcotest.(check bool) "polarity keys distinct" false
    (P.polarity_key P.Nfet = P.polarity_key P.Pfet)

let test_doping_memo_shared () =
  Memo.clear_all ();
  let node = Subscale.Scaling.Roadmap.find 90 in
  let first = Subscale.Scaling.Super_vth.select_node node in
  let s1 = stat "scaling.doping_fit" in
  let second = Subscale.Scaling.Super_vth.select_node node in
  let s2 = stat "scaling.doping_fit" in
  Alcotest.(check bool) "first run misses" true (s1.Memo.misses > 0);
  Alcotest.(check int) "second run adds no solve" s1.Memo.misses s2.Memo.misses;
  Alcotest.(check bool) "second run hits" true (s2.Memo.hits > s1.Memo.hits);
  Alcotest.(check bool) "same selection" true
    (first.Subscale.Scaling.Super_vth.phys = second.Subscale.Scaling.Super_vth.phys)

(* Two sweep points with identical device parameters solve the TCAD decks
   once; a different mesh resolution is a different key. *)
let test_characterize_cached () =
  Memo.clear_all ();
  let desc = Subscale.Tcad.Structure.default_description in
  let a = Test_util.characterize_cached ~nx:24 ~ny:20 ~vdd:0.9 desc in
  let s1 = stat "tcad.characterize" in
  Alcotest.(check int) "one solve" 1 s1.Memo.misses;
  let b = Test_util.characterize_cached ~nx:24 ~ny:20 ~vdd:0.9 desc in
  let s2 = stat "tcad.characterize" in
  Alcotest.(check int) "identical params reuse the solve" 1 s2.Memo.misses;
  Alcotest.(check int) "hit recorded" (s1.Memo.hits + 1) s2.Memo.hits;
  Alcotest.(check bool) "same characteristics" true (a = b);
  ignore (Test_util.characterize_cached ~nx:20 ~ny:16 ~vdd:0.9 desc);
  let s3 = stat "tcad.characterize" in
  Alcotest.(check int) "coarser mesh is a new key" 2 s3.Memo.misses

(* [Structure.build] uses nx/ny only as minimum spacings: the 90 nm
   super device's (4, 9) and (4, 10) requests build meshes with the same
   line counts and different coordinates.  Each cached answer must be the
   bytes of its own uncached solve, whatever was asked before it. *)
let test_characterize_cached_mesh_key () =
  let module Structure = Subscale.Tcad.Structure in
  let module Extract = Subscale.Tcad.Extract in
  let desc =
    match Subscale.Scaling.Strategy.resolve ~node:90 ~strategy:"super" with
    | Ok (_, _, _, pair) ->
      Subscale.Device.Compact.to_tcad_description pair.Subscale.Circuits.Inverter.nfet
    | Error msg -> Alcotest.fail msg
  in
  let build ny = Structure.build ~nx:4 ~ny desc in
  let m9 = (build 9).Structure.mesh and m10 = (build 10).Structure.mesh in
  Alcotest.(check (pair int int)) "same line counts"
    (m9.Subscale.Tcad.Mesh.nx, m9.Subscale.Tcad.Mesh.ny)
    (m10.Subscale.Tcad.Mesh.nx, m10.Subscale.Tcad.Mesh.ny);
  Alcotest.(check bool) "different coordinates" false
    (m9.Subscale.Tcad.Mesh.xs = m10.Subscale.Tcad.Mesh.xs
     && m9.Subscale.Tcad.Mesh.ys = m10.Subscale.Tcad.Mesh.ys);
  let bytes = Extract.characteristics_codec.Subscale.Exec.Store.encode in
  let uncached = List.map (fun ny -> bytes (Extract.characterize ~vdd:0.9 (build ny))) [ 9; 10 ] in
  Memo.clear_all ();
  let cached =
    List.map (fun ny -> bytes (Test_util.characterize_cached ~nx:4 ~ny ~vdd:0.9 desc)) [ 9; 10 ]
  in
  Alcotest.(check (list string)) "each answer is its own solve" uncached cached;
  Alcotest.(check int) "two meshes, two solves" 2 (stat "tcad.characterize").Memo.misses

(* The daemon keys a TCAD request with [Structure.key_for], which never
   builds the structure: it must be the string [Structure.key] gives the
   built one, or a cache filled through either would miss through the
   other.  The shipped devices on the default mesh, the serve mesh and a
   finer one, and the two meshes that share line counts. *)
let test_structure_key_for () =
  let module Structure = Subscale.Tcad.Structure in
  let module Strategy = Subscale.Scaling.Strategy in
  let desc node kind =
    let _, pair = Strategy.select kind node in
    Subscale.Device.Compact.to_tcad_description pair.Subscale.Circuits.Inverter.nfet
  in
  let check label ?nx ?ny d =
    Alcotest.(check string) label (Structure.key (Structure.build ?nx ?ny d))
      (Structure.key_for ?nx ?ny d)
  in
  List.iter
    (fun node ->
      List.iter
        (fun kind ->
          let d = desc node kind in
          let label =
            Printf.sprintf "%d nm %s" node.Subscale.Scaling.Roadmap.nm (Strategy.kind_key kind)
          in
          check (label ^ " default mesh") d;
          check (label ^ " 16x12") ~nx:16 ~ny:12 d;
          check (label ^ " 24x20") ~nx:24 ~ny:20 d)
        Strategy.kinds)
    Subscale.Scaling.Roadmap.nodes;
  let d = desc (Subscale.Scaling.Roadmap.find 90) Strategy.Super_vth in
  check "90 nm super 4x9" ~nx:4 ~ny:9 d;
  check "90 nm super 4x10" ~nx:4 ~ny:10 d

let golden_dir = if Sys.file_exists "golden" then "golden" else Filename.concat "test" "golden"

(* The keys store records are filed under, as test/gen_golden.ml writes
   their MD5s to key_digests.txt: a record's name is the MD5 of its table
   name and key, so one changed byte in any of them would turn every
   existing cache into misses.  The shipped devices' structure and
   characterization keys on three meshes, every selection key, two
   sweeps. *)
let key_digest_cases () =
  let module Strategy = Subscale.Scaling.Strategy in
  let module Roadmap = Subscale.Scaling.Roadmap in
  let module Extract = Subscale.Tcad.Extract in
  let desc node kind =
    let _, pair = Strategy.select kind node in
    Subscale.Device.Compact.to_tcad_description pair.Subscale.Circuits.Inverter.nfet
  in
  let label node kind = Printf.sprintf "%d-%s" node.Roadmap.nm (Strategy.kind_key kind) in
  let meshes = [ ("default", None, None); ("16x12", Some 16, Some 12); ("24x20", Some 24, Some 20) ] in
  let devices =
    List.concat_map
      (fun node -> List.map (fun kind -> (label node kind, desc node kind)) Strategy.kinds)
      Roadmap.nodes
  in
  let sweep node kind = desc (Roadmap.find node) kind in
  List.concat_map
    (fun (dev, d) ->
      List.concat_map
        (fun (mesh, nx, ny) ->
          [ (Printf.sprintf "structure-%s-%s" dev mesh, Subscale.Tcad.Structure.key_for ?nx ?ny d);
            (Printf.sprintf "characterize-%s-%s" dev mesh, Extract.characterize_key ?nx ?ny d) ])
        meshes)
    devices
  @ List.concat_map
      (fun node ->
        List.map
          (fun kind -> ("selection-" ^ label node kind, Strategy.selection_key kind node))
          Strategy.kinds)
      Roadmap.nodes_with_130
  @ [ ( "sweep-90-sub-16x12",
        Extract.sweep_key ~nx:16 ~ny:12 (sweep 90 Strategy.Sub_vth) ~vd:0.05
          (Subscale.Numerics.Vec.linspace 0.0 0.15 5) );
      ( "sweep-45-super-default",
        Extract.sweep_key (sweep 45 Strategy.Super_vth) ~vd:0.6
          (Subscale.Numerics.Vec.linspace 0.3 0.45 4) ) ]

let test_key_digests () =
  let golden =
    In_channel.with_open_bin (Filename.concat golden_dir "key_digests.txt") In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
    |> List.map (fun l ->
           match String.split_on_char ' ' l with
           | [ label; digest ] -> (label, digest)
           | _ -> Alcotest.failf "key_digests.txt: malformed line %S" l)
  in
  let cases = key_digest_cases () in
  Alcotest.(check (list string)) "labels" (List.map fst golden) (List.map fst cases);
  List.iter
    (fun (label, key) ->
      Alcotest.(check string) label (List.assoc label golden) (Digest.to_hex (Digest.string key)))
    cases

(* Key.float writes the bits out by hand; it must stay the text Printf's
   %Lx gives them, or every memo and store key would change.  Random bit
   patterns, plus NaNs with random payloads, subnormals and zeros of either
   sign. *)
let key_bits =
  let open QCheck2.Gen in
  let sign = map (fun neg -> if neg then Int64.min_int else 0L) bool in
  let mantissa = map (fun m -> Int64.logand m 0x000f_ffff_ffff_ffffL) ui64 in
  let with_exponent e = map2 (fun s m -> Int64.logor s (Int64.logor e m)) sign mantissa in
  frequency
    [ (6, ui64);
      (1, with_exponent 0x7ff0_0000_0000_0000L);
      (1, with_exponent 0L);
      (1, map2 Int64.logor sign (oneofl [ 0L; 1L; 0x7ff0_0000_0000_0000L ])) ]

let prop_key_float =
  prop "key: float is Printf's %Lx of the bits" ~count:500 key_bits (fun bits ->
      let f = Int64.float_of_bits bits in
      Exec.Key.float f = Printf.sprintf "%Lx" (Int64.bits_of_float f))

(* The combinators the exact-size writers replaced, as they were (a float
   was Printf's %Lx of its bits): every store record is filed under their
   text, so the writers must produce it byte for byte. *)
module Old_key = struct
  let float f = Printf.sprintf "%Lx" (Int64.bits_of_float f)

  let list enc xs = "[" ^ String.concat "," (List.map enc xs) ^ "]"

  let fields name kvs =
    name ^ "{" ^ String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) kvs) ^ "}"
end

let prop_key_writers =
  let open QCheck2.Gen in
  let floats = map (fun bits -> Array.of_list (List.map Int64.float_of_bits bits)) (list_size (0 -- 40) key_bits) in
  let name = string_size ~gen:printable (0 -- 12) in
  prop "key: the writers are the old combinators' text" ~count:300
    (triple floats name (list_size (0 -- 6) (pair name floats)))
    (fun (xs, rec_name, kvs) ->
      let old_floats a = List.map Old_key.float (Array.to_list a) in
      Array.for_all (fun f -> Exec.Key.float f = Old_key.float f) xs
      && Exec.Key.floats xs = Old_key.list Old_key.float (Array.to_list xs)
      && Exec.Key.floats ~bracketed:false xs = String.concat "," (old_floats xs)
      && Exec.Key.fields rec_name (List.map (fun (k, a) -> (k, Exec.Key.floats a)) kvs)
         = Old_key.fields rec_name
             (List.map (fun (k, a) -> (k, Old_key.list Old_key.float (Array.to_list a))) kvs))

(* A cached NaN (e.g. a non-converged sentinel) must compare equal to its
   bit-identical shadow recompute: the audit equality goes through the
   polymorphic total order, where nan = nan holds, instead of (=), where
   it does not.  Pre-fix, every audited hit on a NaN-carrying value fired
   a spurious AUD012. *)
let test_memo_nan_audit () =
  Memo.clear_audit_violations ();
  let t : float Memo.t = Memo.create ~name:"test.nan-audit" () in
  let compute () = Float.nan in
  ignore (Memo.find_or_compute t ~key:"sentinel" compute);
  Memo.with_audit (fun () ->
      let v = Memo.find_or_compute t ~key:"sentinel" compute in
      Alcotest.(check bool) "cached NaN round-trips" true (Float.is_nan v));
  Alcotest.(check (list (pair string string)))
    "bit-identical NaN recompute is not a violation" [] (Memo.audit_violations ());
  (* The equality must still catch genuinely diverging recomputes. *)
  let u : float Memo.t = Memo.create ~name:"test.nan-audit.divergent" () in
  let flip = ref 1.0 in
  let unstable () = flip := !flip +. 1.0; !flip in
  ignore (Memo.find_or_compute u ~key:"k" unstable);
  Memo.with_audit (fun () -> ignore (Memo.find_or_compute u ~key:"k" unstable));
  Alcotest.(check (list (pair string string)))
    "divergent recompute still fires" [ ("test.nan-audit.divergent", "k") ]
    (Memo.audit_violations ());
  Memo.clear_audit_violations ()

(* Daemon-style table churn: re-creating a table under the same name must
   replace the registry entry (not append), so a long-running process
   holds the registry at constant size and stats () reports one row per
   name instead of double-counting. *)
let test_registry_churn_bounded () =
  let before = Memo.registry_size () in
  for i = 1 to 100 do
    let t : int Memo.t = Memo.create ~name:"test.registry.churn" () in
    ignore (Memo.find_or_compute t ~key:"k" (fun () -> i))
  done;
  Alcotest.(check int) "registry grew by exactly one name" (before + 1)
    (Memo.registry_size ());
  let rows =
    List.filter (fun (s : Memo.stats) -> s.Memo.name = "test.registry.churn") (Memo.stats ())
  in
  Alcotest.(check int) "stats reports one row for the churned name" 1 (List.length rows);
  (match rows with
  | [ s ] ->
    Alcotest.(check int) "row reflects the live table, not a dropped one" 1 s.Memo.misses
  | _ -> ())

(* The audit violation list is bounded; overflow is not stored. *)
let test_violations_bounded () =
  Memo.clear_audit_violations ();
  let t : float Memo.t = Memo.create ~name:"test.violations.bound" () in
  let tick = ref 0.0 in
  let unstable () = tick := !tick +. 1.0; !tick in
  ignore (Memo.find_or_compute t ~key:"k" unstable);
  Memo.with_audit (fun () ->
      for _ = 1 to 300 do
        ignore (Memo.find_or_compute t ~key:"k" unstable)
      done);
  Alcotest.(check int) "list capped at 256" 256 (List.length (Memo.audit_violations ()));
  Memo.clear_audit_violations ();
  Alcotest.(check int) "clear empties the list" 0 (List.length (Memo.audit_violations ()))

(* Two domains racing the same key: both must miss (neither can observe
   the other's insert, because each compute blocks until both have
   entered), the first insert wins, and the counters stay consistent.
   The interlock cannot deadlock: a hit would require an insert, which
   requires a compute to have returned, which requires both to have
   entered compute — i.e. both missed. *)
let test_memo_concurrent_same_key () =
  let t : int Memo.t = Memo.create ~name:"test.concurrent" () in
  let entered = Atomic.make 0 in
  let order = Atomic.make 0 in
  let compute () =
    Atomic.incr entered;
    while Atomic.get entered < 2 do
      Domain.cpu_relax ()
    done;
    100 + Atomic.fetch_and_add order 1
  in
  let d1 = Domain.spawn (fun () -> Memo.find_or_compute t ~key:"k" compute) in
  let d2 = Domain.spawn (fun () -> Memo.find_or_compute t ~key:"k" compute) in
  let a = Domain.join d1 and b = Domain.join d2 in
  Alcotest.(check bool) "both computed" true (List.sort compare [ a; b ] = [ 100; 101 ]);
  Alcotest.(check int) "both missed" 2 (Memo.misses t);
  Alcotest.(check int) "no hits during the race" 0 (Memo.hits t);
  Alcotest.(check int) "one entry survives (first insert wins)" 1 (Memo.size t);
  let cached = Memo.find_or_compute t ~key:"k" (fun () -> 999) in
  Alcotest.(check bool) "later lookups see a raced value, not a recompute" true
    (cached = 100 || cached = 101);
  Alcotest.(check int) "later lookup is a hit" 1 (Memo.hits t)

(* clear_all racing an in-flight compute: the reset must neither deadlock
   (the compute runs outside the table lock) nor corrupt the table — the
   racer's insert lands in the cleared table and later lookups hit it. *)
let test_clear_all_races_compute () =
  let t : int Memo.t = Memo.create ~name:"test.clear-race" () in
  let started = Atomic.make false in
  let release = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        Memo.find_or_compute t ~key:"k" (fun () ->
            Atomic.set started true;
            while not (Atomic.get release) do
              Domain.cpu_relax ()
            done;
            7))
  in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  Memo.clear_all ();
  Atomic.set release true;
  Alcotest.(check int) "in-flight compute completes" 7 (Domain.join d);
  Alcotest.(check int) "clear during flight left misses reset" 0 (Memo.misses t);
  Alcotest.(check int) "the in-flight insert landed" 1 (Memo.size t);
  Alcotest.(check int) "and is served on the next lookup" 7
    (Memo.find_or_compute t ~key:"k" (fun () -> 999));
  Alcotest.(check int) "as a hit" 1 (Memo.hits t)

(* --- Differential harness ------------------------------------------- *)

let render_outputs outs =
  String.concat "\n"
    (List.map
       (fun (o : Subscale.Experiments.output) ->
         o.Subscale.Experiments.id ^ "\n"
         ^ Subscale.Report.Table.render o.Subscale.Experiments.table
         ^ String.concat "\n" o.Subscale.Experiments.plots)
       outs)

(* Every table and figure of the paper set, rendered from a cold start (no
   memo reuse across runs, fresh context) at a given jobs setting. *)
let paper_set () =
  Memo.clear_all ();
  let ctx = lazy (Subscale.Experiments.make_context ~with_130:true ()) in
  List.filter_map
    (fun (e : Subscale.Experiments.experiment) ->
      if e.Subscale.Experiments.group = Subscale.Experiments.Paper then
        Some (e.Subscale.Experiments.run ~measured:false ctx)
      else None)
    Subscale.Experiments.registry

(* The cheap extensions; the Monte-Carlo paths are covered bit-exactly by
   test_differential_mc below at reduced trial counts. *)
let extension_subset () =
  Memo.clear_all ();
  let ctx = Subscale.Experiments.make_context () in
  [ Subscale.Experiments.ext_multi_vth ();
    Subscale.Experiments.ext_bitline ctx;
    Subscale.Experiments.ext_temperature ();
    Subscale.Experiments.ext_projection ();
    Subscale.Experiments.ext_corners ctx ]

let test_differential_paper () =
  restore_jobs (fun () ->
      Exec.set_jobs 1;
      let seq = render_outputs (paper_set ()) in
      Exec.set_jobs 4;
      let par = render_outputs (paper_set ()) in
      Alcotest.(check string) "paper set: --jobs 4 == --jobs 1" seq par)

let test_differential_extensions () =
  restore_jobs (fun () ->
      Exec.set_jobs 1;
      let seq = render_outputs (extension_subset ()) in
      Exec.set_jobs 4;
      let par = render_outputs (extension_subset ()) in
      Alcotest.(check string) "extensions: --jobs 4 == --jobs 1" seq par)

(* Monte-Carlo fan-out: the sampled arrays themselves (not just the
   rendered digits) must be bit-identical, because all RNG draws happen
   sequentially in the original loop order and every trial keeps its own
   scratch.  Each kernel runs at two supplies: the SNM one at a supply
   where some trials lose their gain = -1 points, and the chain delay
   also through delay_spread_vs_vdd, which evaluates both supplies on one
   set of draws. *)
let test_differential_mc () =
  let phys = List.hd P.paper_table2 in
  let pair = Subscale.Circuits.Inverter.pair_of_physical phys in
  let module V = Subscale.Analysis.Variability in
  restore_jobs (fun () ->
      let run () =
        let d =
          List.map
            (fun vdd -> V.chain_delay_distribution ~trials:64 ~stages:12 pair ~vdd)
            [ 0.25; 0.4 ]
        in
        let spread = V.delay_spread_vs_vdd ~trials:64 pair ~vdds:[ 0.4; 0.25 ] in
        let s = List.map (fun vdd -> V.snm_distribution ~trials:1000 pair ~vdd) [ 0.3; 0.06 ] in
        (d, spread, s)
      in
      Exec.set_jobs 1;
      let d1, spread1, s1 = run () in
      Exec.set_jobs 4;
      let d4, spread4, s4 = run () in
      let same_bits name a b =
        Alcotest.(check (list int64)) name
          (List.map Int64.bits_of_float (Array.to_list a))
          (List.map Int64.bits_of_float (Array.to_list b))
      in
      List.iter2
        (fun a b -> same_bits "delay samples bit-identical" a.V.samples b.V.samples)
        d1 d4;
      List.iter2
        (fun a b -> same_bits "snm samples bit-identical" a.V.samples b.V.samples)
        s1 s4;
      same_bits "delay spreads bit-identical"
        (Array.of_list (List.map snd spread1))
        (Array.of_list (List.map snd spread4));
      List.iter2 (fun a b -> check_float ~tol:0.0 "delay mean exact" a.V.mean b.V.mean) d1 d4;
      List.iter2 (fun a b -> check_float ~tol:0.0 "snm p95 exact" a.V.p95 b.V.p95) s1 s4;
      let low = (List.nth s1 1).V.samples in
      Alcotest.(check bool) "at 60 mV some SNM trials fail and some do not" true
        (Array.exists (fun v -> v = 0.0) low && Array.exists (fun v -> v > 0.0) low))

(* --- Store under domains ---------------------------------------------- *)

module Store = Subscale.Exec.Store

let temp_store_dir () =
  let path = Filename.temp_file "subscale_store_stress" "" in
  Sys.remove path;
  path

(* Concurrent add/find/flush across domains: every write must be readable
   afterwards (write-behind queue and disk agree), and the counters must
   add up — pending drained to zero, one disk record per distinct key,
   the flush counter moving. *)
let test_store_multidomain () =
  let dir = temp_store_dir () in
  let s = Store.open_store ~flush_threshold:8 ~dir () in
  let domains = 4 and per = 50 in
  let workers =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to per - 1 do
              let key = Printf.sprintf "d%d-k%d" d i in
              Store.add s ~name:"stress" ~key (string_of_int ((d * 1000) + i));
              (match Store.find s ~name:"stress" ~key with
              | Some _ -> ()
              | None -> failwith ("own write invisible: " ^ key));
              if i mod 16 = 0 then Store.flush s
            done))
  in
  List.iter Domain.join workers;
  Store.flush s;
  for d = 0 to domains - 1 do
    for i = 0 to per - 1 do
      let key = Printf.sprintf "d%d-k%d" d i in
      match Store.find s ~name:"stress" ~key with
      | Some v -> Alcotest.(check string) key (string_of_int ((d * 1000) + i)) v
      | None -> Alcotest.failf "lost write %s" key
    done
  done;
  Alcotest.(check int) "one disk record per key" (domains * per) (Store.entry_count s);
  Alcotest.(check int) "pending drained" 0 (Store.pending s);
  Alcotest.(check int) "writes counter consistent" (domains * per) (Store.writes s);
  if Store.flushes s <= 0 then Alcotest.fail "flush counter never moved";
  Store.close s

(* An exception inside the drain's critical section (injected by planting
   a directory where the record file must land, so the rename fails) must
   not wedge the store: the shard lock is released on the raise and every
   other key keeps working. *)
let test_store_injected_failure () =
  let dir = temp_store_dir () in
  let s = Store.open_store ~flush_threshold:100 ~dir () in
  let name = "stress" and key = "poison" in
  let hex = Digest.to_hex (Digest.string (name ^ "\x00" ^ key)) in
  let shard = Filename.concat dir (String.sub hex 0 2) in
  if not (Sys.file_exists shard) then Sys.mkdir shard 0o755;
  let entry = Filename.concat shard hex in
  Sys.mkdir entry 0o755;
  Sys.mkdir (Filename.concat entry "occupied") 0o755;
  Store.add s ~name ~key "doomed";
  (match Store.flush s with
  | () -> Alcotest.fail "expected the planted rename failure to surface"
  | exception Sys_error _ -> ());
  (* the store survives: a fresh key still round-trips cleanly *)
  Store.add s ~name ~key:"survivor" "fine";
  Store.flush s;
  (match Store.find s ~name ~key:"survivor" with
  | Some "fine" -> ()
  | Some v -> Alcotest.failf "survivor read back %S" v
  | None -> Alcotest.fail "store wedged after an injected drain failure");
  Store.close s

(* --- Golden regressions ---------------------------------------------- *)

(* dune runtest runs with cwd = test/; dune exec from the root. *)

(* Every golden/<id>.txt whose id names a registry experiment, in registry
   order; gen_golden.ml's list decides which ids have a snapshot. *)
let golden_experiments () =
  List.filter
    (fun e ->
      Sys.file_exists (Filename.concat golden_dir (e.Subscale.Experiments.id ^ ".txt")))
    Subscale.Experiments.registry

let test_golden jobs () =
  restore_jobs (fun () ->
      Exec.set_jobs jobs;
      Memo.clear_all ();
      let experiments = golden_experiments () in
      if experiments = [] then Alcotest.fail "no golden snapshots found";
      let ctx = Subscale.Experiments.context_for experiments in
      List.iter
        (fun e ->
          let id = e.Subscale.Experiments.id in
          let expected =
            In_channel.with_open_bin (Filename.concat golden_dir (id ^ ".txt"))
              In_channel.input_all
          in
          let o = e.Subscale.Experiments.run ~measured:true ctx in
          let actual = Subscale.Report.Table.render o.Subscale.Experiments.table in
          Alcotest.(check string) (Printf.sprintf "%s @ jobs=%d" id jobs) expected actual)
        experiments)

let suite =
  [
    ( "exec",
      [
        case "pool: map preserves input order" test_pool_order;
        case "pool: one domain spawns no workers" test_pool_one_domain;
        case "pool: a worker runs on a task-sized minor heap" test_pool_worker_heap;
        case "pool: empty and singleton lists" test_pool_edges;
        case "pool: exception parity and survival" test_pool_exception;
        case "pool: shutdown invalidates" test_pool_shutdown;
        prop_pool_differential;
        case "exec: nested maps are sequential" test_exec_map_nested;
        case "exec: fewer than two items never fan out" test_exec_map_short_lists;
        case "memo: hit/miss accounting" test_memo_counters;
        case "memo: a find miss counts nothing" test_memo_find;
        case "memo: disabled scope bypasses" test_memo_disabled;
        case "memo: keys track every field" test_physical_key_sensitivity;
        case "memo: doping solve shared across runs" test_doping_memo_shared;
        case "memo: NaN survives the audit equality" test_memo_nan_audit;
        case "memo: registry holds size under table churn" test_registry_churn_bounded;
        case "memo: audit violations are bounded" test_violations_bounded;
        case "memo: concurrent same-key computes stay consistent"
          test_memo_concurrent_same_key;
        case "memo: clear_all races an in-flight compute" test_clear_all_races_compute;
        case "store: multi-domain add/find/flush loses nothing"
          test_store_multidomain;
        case "store: injected drain failure does not wedge it"
          test_store_injected_failure;
        slow_case "memo: tcad characterization solves once" test_characterize_cached;
        slow_case "differential: paper set jobs 1 vs 4" test_differential_paper;
        slow_case "differential: extensions jobs 1 vs 4" test_differential_extensions;
        slow_case "differential: Monte-Carlo samples" test_differential_mc;
        case "golden: sequential run matches snapshots" (test_golden 1);
        slow_case "golden: parallel run matches snapshots" (test_golden 4);
        slow_case "memo: tcad keys name the mesh, not its line counts"
          test_characterize_cached_mesh_key;
        case "memo: key_for is the built structure's key" test_structure_key_for;
        case "key: store keys keep their golden digests" test_key_digests;
        prop_key_float;
        prop_key_writers;
      ] );
  ]
