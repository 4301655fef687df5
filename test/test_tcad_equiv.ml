(* Solver-equivalence suite for the warm-started sweep continuation.

   The warm path (speculative jump from the previous bias point's state)
   must reproduce the cold reference (every point a fresh ramp from
   equilibrium) to within the Gummel tolerance: at tol = 1e-11 in potential
   the drain currents agree to ~1e-9 relative (dI/I ~ dpsi/vt).  The suite
   drives random bias boxes over all four shipped nodes on reduced meshes,
   pins the warm-failure fallback semantics, and checks full-mesh golden
   sweeps on the 45 nm node (regenerate with `dune exec test/gen_golden.exe`
   after intentional solver changes). *)

open Subscale
module Structure = Tcad.Structure
module Poisson = Tcad.Poisson
module Gummel = Tcad.Gummel
module Extract = Tcad.Extract
module Params = Device.Params

let u = Test_util.case
let slow = Test_util.slow_case

let shipped_nodes = [ 90; 65; 45; 32 ]

let physical_of_node node_nm =
  List.find (fun p -> p.Params.node_nm = node_nm) Params.paper_table2

let description_of_node node_nm =
  let nfet =
    (Circuits.Inverter.pair_of_physical (physical_of_node node_nm))
      .Circuits.Inverter.nfet
  in
  Device.Compact.to_tcad_description nfet

(* Reduced meshes keep a sweep pair (warm + cold) at milliseconds; the
   discretization is coarse but the equivalence claim is mesh-independent. *)
let small_dev =
  let cache = Hashtbl.create 4 in
  fun node_nm ->
    match Hashtbl.find_opt cache node_nm with
    | Some dev -> dev
    | None ->
      let dev = Structure.build ~nx:24 ~ny:20 (description_of_node node_nm) in
      Hashtbl.add cache node_nm dev;
      dev

(* Full default-mesh 45 nm device — must match test/gen_golden.ml. *)
let golden_dev = lazy (Structure.build (description_of_node 45))

let tol = 1e-11
let max_gummel = 200

let check_sweep_close name ~rel (expected : Numerics.Vec.t) (actual : Numerics.Vec.t) =
  Alcotest.(check int) (name ^ ": points") (Array.length expected) (Array.length actual);
  Array.iteri
    (fun i id ->
      Test_util.check_rel (Printf.sprintf "%s: point %d" name i) ~rel expected.(i) id)
    actual

(* --- warm vs cold equivalence ---------------------------------------- *)

let gen_bias_box =
  QCheck2.Gen.(
    let* node_nm = oneofl shipped_nodes in
    let* vd = float_range 0.02 0.6 in
    let* vg_min = float_range 0.0 0.4 in
    let* span = float_range 0.1 0.5 in
    pure (node_nm, vd, vg_min, vg_min +. span))

let equivalence_tests =
  [
    Test_util.prop "warm id_vg matches cold within 1e-9 over random bias boxes"
      ~count:12 gen_bias_box (fun (node_nm, vd, vg_min, vg_max) ->
        let dev = small_dev node_nm in
        let warm = Extract.id_vg ~vg_min ~vg_max ~points:5 ~tol ~max_gummel dev ~vd in
        let cold =
          Extract.id_vg ~vg_min ~vg_max ~points:5 ~warm:false ~tol ~max_gummel dev ~vd
        in
        Array.iteri
          (fun i id ->
            let scale = Float.max (Float.abs cold.Extract.ids.(i)) (Float.abs id) in
            if Float.abs (cold.Extract.ids.(i) -. id) > 1e-9 *. scale then
              QCheck2.Test.fail_reportf
                "node %d, Vd=%.3f, Vg in [%.3f, %.3f], point %d: warm %.12e vs cold %.12e"
                node_nm vd vg_min vg_max i id
                cold.Extract.ids.(i))
          warm.Extract.ids;
        true);
    slow "warm id_vd matches cold within 1e-9 on every shipped node" (fun () ->
        List.iter
          (fun node_nm ->
            let dev = small_dev node_nm in
            let warm =
              Extract.id_vd ~vd_min:0.0 ~vd_max:0.5 ~points:6 ~tol ~max_gummel dev ~vg:0.3
            in
            let cold =
              Extract.id_vd ~vd_min:0.0 ~vd_max:0.5 ~points:6 ~warm:false ~tol ~max_gummel
                dev ~vg:0.3
            in
            check_sweep_close
              (Printf.sprintf "node %d" node_nm)
              ~rel:1e-9 cold.Extract.ids warm.Extract.ids)
          shipped_nodes);
    u "characterize agrees with per-plane cold sweeps" (fun () ->
        (* The cross-plane warm continuation inside characterize must not
           move the extracted figures: recompute its linear-Vd plane cold
           and compare the currents it is built from. *)
        let dev = small_dev 65 in
        let warm = Extract.id_vg ~vg_min:0.0 ~vg_max:0.9 ~points:19 ~tol ~max_gummel dev ~vd:0.05 in
        let cold =
          Extract.id_vg ~vg_min:0.0 ~vg_max:0.9 ~points:19 ~warm:false ~tol ~max_gummel dev
            ~vd:0.05
        in
        Test_util.check_rel "subthreshold slope" ~rel:1e-6
          (Extract.subthreshold_slope cold)
          (Extract.subthreshold_slope warm);
        Test_util.check_rel "threshold voltage" ~rel:1e-6
          (Extract.threshold_voltage cold)
          (Extract.threshold_voltage warm));
  ]

(* --- fallback semantics ----------------------------------------------- *)

let warm_start_counter = "tcad.extract.warm_start"
let warm_fallback_counter = "tcad.extract.warm_fallback"

let fallback_tests =
  [
    u "a starved warm budget falls back cold and matches the cold sweep exactly"
      (fun () ->
        (* max_warm_gummel = 1 cannot converge any speculative jump, so every
           continuation point must retry as a fresh ramp from the sweep's
           equilibrium anchor — the exact arithmetic of ~warm:false — and
           count one fallback per jump. *)
        let dev = small_dev 45 in
        let starts0 = Test_util.counter_value warm_start_counter in
        let falls0 = Test_util.counter_value warm_fallback_counter in
        let starved =
          Extract.id_vg ~vg_min:0.0 ~vg_max:0.6 ~points:4 ~max_warm_gummel:1 dev ~vd:0.25
        in
        Alcotest.(check int)
          "every jump fell back" 3
          (Test_util.counter_value warm_fallback_counter - falls0);
        Alcotest.(check int)
          "no jump succeeded" 0
          (Test_util.counter_value warm_start_counter - starts0);
        let cold = Extract.id_vg ~vg_min:0.0 ~vg_max:0.6 ~points:4 ~warm:false dev ~vd:0.25 in
        Array.iteri
          (fun i id -> Alcotest.(check (float 0.0)) (Printf.sprintf "point %d" i) cold.Extract.ids.(i) id)
          starved.Extract.ids);
    u "an ample warm budget counts one warm start per continuation point" (fun () ->
        let dev = small_dev 45 in
        let starts0 = Test_util.counter_value warm_start_counter in
        let falls0 = Test_util.counter_value warm_fallback_counter in
        let _ = Extract.id_vg ~vg_min:0.2 ~vg_max:0.5 ~points:4 dev ~vd:0.05 in
        Alcotest.(check int)
          "warm starts" 3
          (Test_util.counter_value warm_start_counter - starts0);
        Alcotest.(check int)
          "no fallback" 0
          (Test_util.counter_value warm_fallback_counter - falls0));
  ]

(* --- warm-start prediction ---------------------------------------------- *)

(* A state whose potentials at node k are [f k x] (psi), [f k x /. 2.0]
   (phi_n) and [-. f k x /. 3.0] (phi_p); densities are left at zero, since
   [Gummel.remember] keeps potentials only. *)
let poly_state dev f x =
  let n = Tcad.Mesh.n_nodes dev.Structure.mesh in
  let field g = Tcad.Field.init n g in
  {
    Gummel.biases = Poisson.zero_bias;
    psi = field (fun k -> f k x);
    u = field (fun _ -> 0.0);
    w = field (fun _ -> 0.0);
    n = field (fun _ -> 0.0);
    p = field (fun _ -> 0.0);
    phi_n = field (fun k -> f k x /. 2.0);
    phi_p = field (fun k -> -.f k x /. 3.0);
    drain_current = 0.0;
  }

let linear k x = (0.3 *. sin (float_of_int k)) +. ((0.2 +. (0.001 *. float_of_int k)) *. x)

let quadratic k x = linear k x -. ((0.4 +. (0.0005 *. float_of_int k)) *. x *. x)

let predict_through dev scratch f xs at =
  Poisson.forget scratch;
  List.iter (fun x -> Gummel.remember scratch ~at:x (poly_state dev f x)) xs;
  Gummel.predict scratch dev ~from:(poly_state dev f (List.nth xs (List.length xs - 1))) ~at

(* Every potential within [abs] of the polynomial's value at [at], and each
   density the Boltzmann expression of the predicted potentials. *)
let check_prediction name dev f at (g : Gummel.state) =
  let vt = dev.Structure.vt and ni = dev.Structure.ni in
  for k = 0 to Tcad.Field.length g.Gummel.psi - 1 do
    let psi = g.Gummel.psi.{k} and phi_n = g.Gummel.phi_n.{k} and phi_p = g.Gummel.phi_p.{k} in
    let near what expected actual =
      if Float.abs (expected -. actual) > 1e-13 then
        Alcotest.failf "%s: %s at node %d: expected %.17g, got %.17g" name what k expected actual
    in
    near "psi" (f k at) psi;
    near "phi_n" (f k at /. 2.0) phi_n;
    near "phi_p" (-.f k at /. 3.0) phi_p;
    Test_util.check_rel (Printf.sprintf "%s: n at node %d" name k) ~rel:1e-12
      (ni *. exp ((psi -. phi_n) /. vt)) g.Gummel.n.{k};
    Test_util.check_rel (Printf.sprintf "%s: p at node %d" name k) ~rel:1e-12
      (ni *. exp ((phi_p -. psi) /. vt)) g.Gummel.p.{k}
  done

let predict_tests =
  [
    u "prediction reproduces states linear and quadratic in bias" (fun () ->
        let dev = small_dev 45 in
        let scratch = Poisson.make_scratch dev in
        check_prediction "linear through 2" dev linear 0.35
          (predict_through dev scratch linear [ 0.1; 0.2 ] 0.35);
        check_prediction "quadratic through 3" dev quadratic 0.35
          (predict_through dev scratch quadratic [ 0.0; 0.1; 0.25 ] 0.35);
        (* Six points kept: only the newest four (a cubic) count. *)
        check_prediction "quadratic through 4 of 6" dev quadratic 0.4
          (predict_through dev scratch quadratic [ 0.5; 0.45; 0.0; 0.1; 0.2; 0.3 ] 0.4));
    u "prediction falls back to the previous state without history or spacing" (fun () ->
        let dev = small_dev 45 in
        let scratch = Poisson.make_scratch dev in
        let from = poly_state dev linear 0.2 in
        Poisson.forget scratch;
        Gummel.remember scratch ~at:0.2 from;
        Alcotest.(check bool) "one point kept" true
          (Gummel.predict scratch dev ~from ~at:0.3 == from);
        (* Two points 1 ulp apart: every weight through them is ~1e15. *)
        Poisson.forget scratch;
        Gummel.remember scratch ~at:0.2 from;
        Gummel.remember scratch ~at:(Float.succ 0.2) from;
        Alcotest.(check bool) "crowded pair" true
          (Gummel.predict scratch dev ~from ~at:0.3 == from));
    slow "irregular and near-duplicate gate grids: no fallback, cold within 1e-9" (fun () ->
        let dev = small_dev 45 in
        let vd = 0.05 in
        let bias gate = { Poisson.zero_bias with Poisson.gate; drain = vd } in
        let cold vgs =
          let scratch = Poisson.make_scratch dev in
          let eq = Gummel.equilibrium ~scratch dev in
          Array.map
            (fun gate ->
              (Gummel.solve_at ~tol ~max_gummel ~scratch dev ~from:eq (bias gate))
                .Gummel.drain_current)
            vgs
        in
        (* Extract's warm loop at the suite's tolerance: every jump starts
           from the prediction through the kept points, and a jump that
           does not converge raises instead of falling back. *)
        let warm vgs =
          let scratch = Poisson.make_scratch dev in
          let eq = Gummel.equilibrium ~scratch dev in
          let state = ref (Gummel.solve_at ~tol ~max_gummel ~scratch dev ~from:eq (bias vgs.(0))) in
          Poisson.forget scratch;
          Gummel.remember scratch ~at:vgs.(0) !state;
          let ids = Array.make (Array.length vgs) !state.Gummel.drain_current in
          for i = 1 to Array.length vgs - 1 do
            let from = Gummel.predict scratch dev ~from:!state ~at:vgs.(i) in
            state := Gummel.continue_at ~tol ~max_gummel ~scratch dev ~from (bias vgs.(i));
            Gummel.remember scratch ~at:vgs.(i) !state;
            ids.(i) <- !state.Gummel.drain_current
          done;
          ids
        in
        List.iter
          (fun (name, vgs) ->
            let falls0 = Test_util.counter_value warm_fallback_counter in
            ignore (Extract.id_vg_at dev ~vd ~vgs);
            Alcotest.(check int)
              (name ^ ": no fallback") 0
              (Test_util.counter_value warm_fallback_counter - falls0);
            check_sweep_close name ~rel:1e-9 (cold vgs) (warm vgs))
          [
            ("irregular", [| 0.0; 0.04; 0.1; 0.13; 0.25; 0.3; 0.45 |]);
            ("near-duplicate", [| 0.0; 0.1; 0.2; Float.succ 0.2; 0.3; 0.4 |]);
          ]);
    u "2- and 3-point sweeps match cold within 1e-9" (fun () ->
        let dev = small_dev 65 in
        List.iter
          (fun points ->
            let falls0 = Test_util.counter_value warm_fallback_counter in
            let warm = Extract.id_vg ~vg_min:0.1 ~vg_max:0.4 ~points ~tol ~max_gummel dev ~vd:0.1 in
            let cold =
              Extract.id_vg ~vg_min:0.1 ~vg_max:0.4 ~points ~warm:false ~tol ~max_gummel dev
                ~vd:0.1
            in
            Alcotest.(check int)
              (Printf.sprintf "%d points: no fallback" points)
              0
              (Test_util.counter_value warm_fallback_counter - falls0);
            check_sweep_close (Printf.sprintf "%d points" points) ~rel:1e-9 cold.Extract.ids
              warm.Extract.ids)
          [ 2; 3 ]);
    u "the history rejects a field of another length" (fun () ->
        let dev = small_dev 45 in
        let scratch = Poisson.make_scratch dev in
        let n = Tcad.Mesh.n_nodes dev.Structure.mesh in
        let good = Tcad.Field.create n and short = Tcad.Field.create 3 in
        let error name =
          Invalid_argument
            (Printf.sprintf "Poisson.%s: a field's length is not the scratch's %d nodes" name n)
        in
        Alcotest.check_raises "remember" (error "remember") (fun () ->
            Poisson.remember scratch ~at:0.0 ~psi:good ~phi_n:short ~phi_p:good);
        Poisson.forget scratch;
        Poisson.remember scratch ~at:0.0 ~psi:good ~phi_n:good ~phi_p:good;
        Poisson.remember scratch ~at:0.1 ~psi:good ~phi_n:good ~phi_p:good;
        Alcotest.check_raises "extrapolate" (error "extrapolate") (fun () ->
            ignore (Poisson.extrapolate scratch ~at:0.2 ~psi:short ~phi_n:good ~phi_p:good)));
  ]

(* --- id_vd drain grid -------------------------------------------------- *)

let grid_tests =
  [
    u "id_vd pins both endpoints of [vd_min, vd_max]" (fun () ->
        let dev = small_dev 90 in
        let out = Extract.id_vd ~vd_min:0.1 ~vd_max:0.5 ~points:5 dev ~vg:0.3 in
        Alcotest.(check int) "points" 5 (Array.length out.Extract.vds);
        Test_util.check_float ~tol:1e-12 "first" 0.1 out.Extract.vds.(0);
        Test_util.check_float ~tol:1e-12 "last" 0.5 out.Extract.vds.(4);
        Test_util.check_float ~tol:1e-12 "spacing" 0.1
          (out.Extract.vds.(1) -. out.Extract.vds.(0)));
    u "id_vd starts at the true origin by default" (fun () ->
        let dev = small_dev 90 in
        let out = Extract.id_vd ~vd_max:0.2 ~points:3 dev ~vg:0.3 in
        Test_util.check_float ~tol:0.0 "vd_min default" 0.0 out.Extract.vds.(0);
        (* At Vd = 0 no drain current can flow. *)
        Alcotest.(check bool)
          "Id(0) negligible" true
          (Float.abs out.Extract.ids.(0) < Float.abs out.Extract.ids.(2) *. 1e-3));
    u "id_vd rejects an empty drain interval, naming the bounds" (fun () ->
        let dev = small_dev 90 in
        Alcotest.check_raises "vd_min >= vd_max"
          (Invalid_argument
             "Extract.id_vd: vd_min = 0.4, vd_max = 0.4, need vd_min < vd_max")
          (fun () -> ignore (Extract.id_vd ~vd_min:0.4 ~vd_max:0.4 dev ~vg:0.3)));
    (* The degenerate-points guards must fire before any solve (linspace
       with points < 2 divides by points - 1) and name the offending
       value, PR 8 shape-guard style. *)
    u "id_vg rejects points < 2, naming the value" (fun () ->
        let dev = small_dev 90 in
        Alcotest.check_raises "points = 1"
          (Invalid_argument "Extract.id_vg: points = 1, need >= 2") (fun () ->
            ignore (Extract.id_vg ~points:1 dev ~vd:0.05));
        Alcotest.check_raises "points = 0"
          (Invalid_argument "Extract.id_vg: points = 0, need >= 2") (fun () ->
            ignore (Extract.id_vg ~points:0 dev ~vd:0.05)));
    u "id_vd rejects points < 2, naming the value" (fun () ->
        let dev = small_dev 90 in
        Alcotest.check_raises "points = 1"
          (Invalid_argument "Extract.id_vd: points = 1, need >= 2") (fun () ->
            ignore (Extract.id_vd ~points:1 dev ~vg:0.3)));
    u "id_vg_at rejects a non-increasing grid, naming the entries" (fun () ->
        let dev = small_dev 90 in
        Alcotest.check_raises "descending pair"
          (Invalid_argument
             "Extract.id_vg: vgs.(1) = 0.3 >= vgs.(2) = 0.2, grid must be strictly increasing")
          (fun () -> ignore (Extract.id_vg_at dev ~vd:0.05 ~vgs:[| 0.1; 0.3; 0.2 |]));
        Alcotest.check_raises "single point"
          (Invalid_argument "Extract.id_vg: points = 1, need >= 2") (fun () ->
            ignore (Extract.id_vg_at dev ~vd:0.05 ~vgs:[| 0.1 |])));
    u "id_vg_at on a linspace grid is bit-identical to id_vg" (fun () ->
        let dev = small_dev 45 in
        let vg_min = 0.1 and vg_max = 0.4 and points = 4 in
        let a = Extract.id_vg ~vg_min ~vg_max ~points dev ~vd:0.1 in
        let b =
          Extract.id_vg_at dev ~vd:0.1 ~vgs:(Numerics.Vec.linspace vg_min vg_max points)
        in
        Alcotest.(check bool) "same gate grid" true (a.Extract.vgs = b.Extract.vgs);
        Alcotest.(check bool) "same currents, same bits" true
          (a.Extract.ids = b.Extract.ids));
  ]

(* --- golden sweeps on the full 45 nm mesh ------------------------------ *)

let read_golden_pairs path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line ->
      if String.length line = 0 || line.[0] = '#' then go acc
      else begin
        match String.split_on_char ' ' (String.trim line) with
        | [ x; y ] -> go ((float_of_string x, float_of_string y) :: acc)
        | _ -> failwith (path ^ ": malformed line: " ^ line)
      end
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let golden_path id =
  let candidates = [ Filename.concat "golden" id; Filename.concat "test/golden" id ] in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.failf "golden snapshot %s not found (run test/gen_golden.exe)" id

let check_golden name pairs xs ys =
  Alcotest.(check int) (name ^ ": points") (List.length pairs) (Array.length xs);
  List.iteri
    (fun i (x, y) ->
      (* %.6e carries 7 significant digits, so both columns compare at the
         snapshot's own precision. *)
      Test_util.check_rel (Printf.sprintf "%s: bias %d" name i) ~rel:1e-6 x xs.(i);
      Test_util.check_rel (Printf.sprintf "%s: current %d" name i) ~rel:1e-6 y ys.(i))
    pairs

(* Work done by a sweep, read through the metrics registry: warm jumps and
   their fallbacks (counters), how many Gummel and Poisson solves ran
   (histogram sample counts) and how many band LU factorizations they did
   (a counter). *)
let work () =
  let counter name =
    match Obs.Metrics.find name with Some (Obs.Metrics.Counter n) -> n | _ -> 0
  in
  let samples name =
    match Obs.Metrics.find name with
    | Some (Obs.Metrics.Histogram h) -> h.Obs.Metrics.count
    | _ -> 0
  in
  [|
    counter "tcad.extract.warm_start";
    counter "tcad.extract.warm_fallback";
    samples "tcad.gummel.inner_iterations";
    samples "tcad.poisson.iterations";
    counter "numerics.stencil5.factorizations";
  |]

let check_work name expected f =
  let before = work () in
  f ();
  let after = work () in
  List.iteri
    (fun i metric ->
      Alcotest.(check int) (name ^ ": " ^ metric) expected.(i) (after.(i) - before.(i)))
    [ "warm starts"; "warm fallbacks"; "gummel solves"; "poisson solves"; "factorizations" ]

(* The TCAD characterizations, as the exact store-codec bytes
   test/gen_golden.ml writes to tcad_serve_bits.txt: every shipped device
   on the serve daemon's 16x12 mesh and on the default mesh, the 45 nm sub
   device at two more supplies (V_g's range and the saturation plane's V_d
   move with V_dd), and one sweep.  The rel 1e-6 snapshots above survive a
   last-bit drift, these do not. *)
let build_dev ?nx ?ny node strategy =
  match Scaling.Strategy.resolve ~node ~strategy with
  | Error e -> Alcotest.fail e
  | Ok (_, _, _, pair) ->
    Structure.build ?nx ?ny (Device.Compact.to_tcad_description pair.Circuits.Inverter.nfet)

let serve_dev = build_dev ~nx:16 ~ny:12

let serve_bit_cases =
  let chars ?(vdd = 0.9) dev () =
    Extract.characteristics_codec.Exec.Store.encode (Extract.characterize ~vdd (dev ()))
  in
  let shipped =
    List.concat_map (fun node -> [ (node, "sub"); (node, "super") ]) [ 90; 65; 45; 32 ]
  in
  [
    ("chars-90-sub", chars (fun () -> serve_dev 90 "sub"));
    ("chars-45-super", chars (fun () -> serve_dev 45 "super"));
    ( "sweep-90-sub",
      fun () ->
        Extract.sweep_codec.Exec.Store.encode
          (Extract.id_vg_at (serve_dev 90 "sub") ~vd:0.05
             ~vgs:(Numerics.Vec.linspace 0.0 0.15 5)) );
  ]
  @ List.filter_map
      (fun (node, strategy) ->
        if List.mem (node, strategy) [ (90, "sub"); (45, "super") ] then None
        else
          Some
            ( Printf.sprintf "chars-%d-%s" node strategy,
              chars (fun () -> serve_dev node strategy) ))
      shipped
  @ List.map
      (fun (node, strategy) ->
        ( Printf.sprintf "chars-%d-%s-default-mesh" node strategy,
          chars (fun () -> build_dev node strategy) ))
      shipped
  @ List.map
      (fun vdd ->
        (Printf.sprintf "chars-45-sub-vdd%g" vdd, chars ~vdd (fun () -> serve_dev 45 "sub")))
      [ 0.6; 1.2 ]

let read_golden_labelled path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> (
      match String.index_opt line ' ' with
      | Some i ->
        go ((String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1)) :: acc)
      | None -> failwith (path ^ ": malformed line: " ^ line))
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let golden_tests =
  [
    slow "45 nm Id-Vg reproduces the golden snapshot" (fun () ->
        let dev = Lazy.force golden_dev in
        let sweep = Extract.id_vg ~vg_min:0.0 ~vg_max:0.6 ~points:9 dev ~vd:0.05 in
        let pairs = read_golden_pairs (golden_path "tcad_idvg_45.txt") in
        check_golden "idvg" pairs sweep.Extract.vgs sweep.Extract.ids);
    slow "45 nm Id-Vd reproduces the golden snapshot" (fun () ->
        let dev = Lazy.force golden_dev in
        let sweep = Extract.id_vd ~vd_min:0.0 ~vd_max:0.5 ~points:7 dev ~vg:0.3 in
        let pairs = read_golden_pairs (golden_path "tcad_idvd_45.txt") in
        check_golden "idvd" pairs sweep.Extract.vds sweep.Extract.ids);
    slow "45 nm golden sweeps do a pinned amount of solver work" (fun () ->
        (* The same two sweeps as the snapshots above: the continuation
           loop must take the same warm jumps and run the same number of
           Gummel and Poisson solves and LU factorizations, not just land
           on the same currents. *)
        let dev = Lazy.force golden_dev in
        check_work "idvg" [| 8; 0; 9; 38; 127 |] (fun () ->
            ignore (Extract.id_vg ~vg_min:0.0 ~vg_max:0.6 ~points:9 dev ~vd:0.05));
        check_work "idvd" [| 6; 0; 9; 30; 107 |] (fun () ->
            ignore (Extract.id_vd ~vd_min:0.0 ~vd_max:0.5 ~points:7 dev ~vg:0.3)));
    slow "serve-mesh characteristics and sweep reproduce their golden bits" (fun () ->
        let golden = read_golden_labelled (golden_path "tcad_serve_bits.txt") in
        Alcotest.(check (list string))
          "labels" (List.map fst serve_bit_cases) (List.map fst golden);
        List.iter
          (fun (label, compute) ->
            Alcotest.(check string) label (List.assoc label golden) (compute ()))
          serve_bit_cases);
    slow "serve-mesh characterizations do a pinned amount of solver work" (fun () ->
        (* Two of the characterizations pinned above: the warm jumps,
           Gummel and Poisson solves and LU factorizations each one costs,
           so a plane that solves past its stop again fails here. *)
        List.iter
          (fun (node, strategy, expected) ->
            let dev = serve_dev node strategy in
            check_work
              (Printf.sprintf "chars-%d-%s" node strategy)
              expected
              (fun () -> ignore (Extract.characterize ~vdd:0.9 dev)))
          [ (90, "sub", [| 17; 0; 27; 78; 330 |]); (45, "super", [| 17; 0; 27; 77; 327 |]) ]);
  ]

(* --- allocation ----------------------------------------------------------- *)

(* Inner Gummel iterations run so far: the histogram records each
   gummel_at's last 0-based iteration index. *)
let inner_iterations () =
  match Obs.Metrics.find "tcad.gummel.inner_iterations" with
  | Some (Obs.Metrics.Histogram h) -> h.Obs.Metrics.sum +. float_of_int h.Obs.Metrics.count
  | _ -> 0.0

let memory_tests =
  [
    u "a warm gummel_at on the serve mesh boxes no float per node" (fun () ->
        let dev = serve_dev 90 "sub" in
        let nodes = Tcad.Mesh.n_nodes dev.Structure.mesh in
        let scratch = Poisson.make_scratch dev in
        let eq = Gummel.equilibrium ~scratch dev in
        let bias gate = { Poisson.zero_bias with Poisson.gate; drain = 0.05 } in
        let from = Gummel.solve_at ~scratch dev ~from:eq (bias 0.2) in
        ignore (Gummel.gummel_at ~scratch dev ~from (bias 0.25));
        let iters0 = inner_iterations () and minor0 = Gc.minor_words () in
        ignore (Gummel.gummel_at ~scratch dev ~from (bias 0.25));
        let minor1 = Gc.minor_words () and iters = inner_iterations () -. iters0 in
        (* Measured: 605 minor words per inner iteration (3 iterations,
           567 nodes), the spans, trace instants and messages of the
           solves.  Before the assembly loops stopped boxing floats and
           the iterates moved into the scratch it was 191.7k, 338 words
           per node; one boxed float per node in any node loop would take
           it past the bound. *)
        Test_util.check_in_range "minor words per inner iteration" ~lo:0.0
          ~hi:(float_of_int (2 * nodes)) ((minor1 -. minor0) /. iters));
    u "a warm jump's remember and predict box no float per node" (fun () ->
        let dev = serve_dev 90 "sub" in
        let nodes = Tcad.Mesh.n_nodes dev.Structure.mesh in
        let scratch = Poisson.make_scratch dev in
        let eq = Gummel.equilibrium ~scratch dev in
        Poisson.forget scratch;
        List.iter (fun at -> Gummel.remember scratch ~at eq) [ 0.0; 0.1; 0.2; 0.3 ];
        ignore (Gummel.predict scratch dev ~from:eq ~at:0.4);
        let minor0 = Gc.minor_words () in
        Gummel.remember scratch ~at:0.4 eq;
        let cubic = Gummel.predict scratch dev ~from:eq ~at:0.5 in
        let minor1 = Gc.minor_words () in
        Alcotest.(check bool) "extrapolated" false (cubic == eq);
        (* Measured: 27 words, the predicted state's record, the two
           continuity destinations and two closures.  A boxed float per
           node in any of the per-node loops is 2 words a node. *)
        Test_util.check_in_range "minor words per jump" ~lo:0.0 ~hi:(float_of_int nodes)
          (minor1 -. minor0));
    u "Structure.build boxes no float per node" (fun () ->
        let desc =
          match Scaling.Strategy.resolve ~node:90 ~strategy:"sub" with
          | Error e -> Alcotest.fail e
          | Ok (_, _, _, pair) -> Device.Compact.to_tcad_description pair.Circuits.Inverter.nfet
        in
        let build_words ?nx ?ny nodes =
          ignore (Structure.build ?nx ?ny desc);
          let minor0 = Gc.minor_words () in
          let dev = Structure.build ?nx ?ny desc in
          let words = Gc.minor_words () -. minor0 in
          Alcotest.(check int) "nodes" nodes (Tcad.Mesh.n_nodes dev.Structure.mesh);
          words
        in
        (* Measured: 590 words on the serve mesh (27x21 nodes) and 646 on
           the default mesh (27x29), the mesh lines and their spacings.
           With the doping profiles as closures, the nodes' coordinates as
           tuples and the mobilities and bulk potential computed by calls
           per node, 42.1k and 57.9k: a boxed float per node is 1.1k words
           on the serve mesh. *)
        Test_util.check_in_range "serve mesh: minor words" ~lo:0.0 ~hi:(1.05 *. 590.0)
          (build_words ~nx:16 ~ny:12 567);
        Test_util.check_in_range "default mesh: minor words" ~lo:0.0 ~hi:(1.05 *. 646.0)
          (build_words 783));
  ]

let suite =
  [
    ("tcad-equiv.warm-cold", equivalence_tests);
    ("tcad-equiv.fallback", fallback_tests);
    ("tcad-equiv.predict", predict_tests);
    ("tcad-equiv.id-vd-grid", grid_tests);
    ("tcad-equiv.golden", golden_tests);
    ("tcad-equiv.memory", memory_tests);
  ]
