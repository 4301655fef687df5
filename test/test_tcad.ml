open Subscale
module Mesh = Tcad.Mesh
module Doping = Tcad.Doping
module Field = Tcad.Field
module Structure = Tcad.Structure
module Poisson = Tcad.Poisson
module Continuity = Tcad.Continuity
module Gummel = Tcad.Gummel
module Extract = Tcad.Extract
module C = Physics.Constants

let u = Test_util.case
let slow = Test_util.slow_case

(* One shared device + equilibrium so the suite doesn't rebuild them. *)
let device = lazy (Structure.build Structure.default_description)
let equilibrium = lazy (Gummel.equilibrium (Lazy.force device))

let lin_sweep =
  lazy
    (let dev = Lazy.force device in
     Extract.id_vg ~points:13 ~vg_max:0.6 dev ~vd:0.05)

let mesh_tests =
  [
    u "index/coords are consistent" (fun () ->
        (* Node loops over xs and ys (Doping.sum_into) rely on this order. *)
        let m = Mesh.make ~xs:[| 0.0; 1.0; 2.0; 4.0 |] ~ys:[| 0.0; 1.0; 3.0 |] in
        for ix = 0 to 3 do
          for iy = 0 to 2 do
            Alcotest.(check int) "k = ix * ny + iy" ((ix * 3) + iy) (Mesh.index m ~ix ~iy)
          done
        done);
    u "index rejects out-of-range nodes" (fun () ->
        let m = Mesh.make ~xs:[| 0.0; 1.0; 2.0 |] ~ys:[| 0.0; 1.0; 2.0 |] in
        Alcotest.check_raises "range" (Invalid_argument "Mesh.index: (3, 0) out of range")
          (fun () -> ignore (Mesh.index m ~ix:3 ~iy:0)));
    u "dual widths tile the domain" (fun () ->
        let xs = [| 0.0; 0.5; 2.0; 3.0 |] in
        let m = Mesh.make ~xs ~ys:[| 0.0; 1.0; 2.0 |] in
        let total = ref 0.0 in
        for ix = 0 to 3 do
          total := !total +. m.Mesh.wx.(ix)
        done;
        Test_util.check_rel "coverage" ~rel:1e-12 3.0 !total);
    u "find_ix picks the nearest column" (fun () ->
        let m = Mesh.make ~xs:[| 0.0; 1.0; 5.0 |] ~ys:[| 0.0; 1.0; 2.0 |] in
        Alcotest.(check int) "nearest" 1 (Mesh.find_ix m 1.4));
    u "non-monotone axes are rejected" (fun () ->
        Alcotest.check_raises "order"
          (Invalid_argument "Mesh.make: xs must be strictly increasing") (fun () ->
            ignore (Mesh.make ~xs:[| 0.0; 2.0; 1.0 |] ~ys:[| 0.0; 1.0; 2.0 |])));
  ]

(* The sum of [profiles] at (x, y): the centre node of a 3x3 mesh around
   the point, filled by Doping.sum_into. *)
let doping_at profiles ~x ~y =
  let axis c = [| c -. 1e-9; c; c +. 1e-9 |] in
  let mesh = Mesh.make ~xs:(axis x) ~ys:(axis y) in
  let dst = Field.create (Mesh.n_nodes mesh) in
  Doping.sum_into mesh dst profiles;
  dst.{Mesh.index mesh ~ix:1 ~iy:1}

let doping_tests =
  [
    u "gaussian peaks at its centre" (fun () ->
        let g =
          doping_at [ Doping.gaussian2d ~peak:1e24 ~x0:1e-8 ~y0:2e-8 ~sigma_x:1e-8 ~sigma_y:1e-8 ]
        in
        Test_util.check_float "peak" 1e24 (g ~x:1e-8 ~y:2e-8);
        Alcotest.(check bool) "decays" true (g ~x:3e-8 ~y:2e-8 < 1e24));
    u "source/drain profile crosses background at the junction" (fun () ->
        let junction = 50e-9 in
        let p =
          doping_at
            [ Doping.source_drain ~peak:1e26 ~junction ~side:`Source ~xj:20e-9
                ~background:1.5e24 ~lateral_sigma:4e-9 ]
        in
        Test_util.check_rel "at junction" ~rel:1e-6 1.5e24 (p ~x:junction ~y:0.0));
    u "source/drain profile falls to background at depth xj" (fun () ->
        let p =
          doping_at
            [ Doping.source_drain ~peak:1e26 ~junction:50e-9 ~side:`Source ~xj:20e-9
                ~background:1.5e24 ~lateral_sigma:4e-9 ]
        in
        Test_util.check_rel "at xj" ~rel:1e-6 1.5e24 (p ~x:0.0 ~y:20e-9));
    u "drain side mirrors the source side" (fun () ->
        let s =
          doping_at
            [ Doping.source_drain ~peak:1e26 ~junction:40e-9 ~side:`Source ~xj:20e-9
                ~background:1e24 ~lateral_sigma:4e-9 ]
        in
        let d =
          doping_at
            [ Doping.source_drain ~peak:1e26 ~junction:60e-9 ~side:`Drain ~xj:20e-9
                ~background:1e24 ~lateral_sigma:4e-9 ]
        in
        Test_util.check_rel "mirror" ~rel:1e-9 (s ~x:45e-9 ~y:3e-9) (d ~x:55e-9 ~y:3e-9));
    u "sum combines profiles" (fun () ->
        let p = doping_at [ Doping.uniform 1.0; Doping.uniform 2.0 ] in
        Test_util.check_float "sum" 3.0 (p ~x:0.0 ~y:0.0));
    u "peak below background is rejected" (fun () ->
        Alcotest.check_raises "invalid"
          (Invalid_argument "Doping.source_drain: peak must exceed background") (fun () ->
            ignore
              (Doping.source_drain ~peak:1.0 ~junction:0.0 ~side:`Source ~xj:1e-8
                 ~background:2.0 ~lateral_sigma:1e-9)));
  ]

let structure_tests =
  [
    u "default structure builds with a plausible channel" (fun () ->
        let dev = Lazy.force device in
        let leff = Structure.effective_channel_length dev in
        (* Lpoly 65 nm, overlap 0.12 Lpoly per side -> ~49 nm. *)
        Test_util.check_in_range "Leff" ~lo:40e-9 ~hi:56e-9 leff);
    u "boundaries include all four contact types" (fun () ->
        let dev = Lazy.force device in
        let count p = Array.fold_left (fun acc b -> if p b then acc + 1 else acc) 0 dev.Structure.boundary in
        Alcotest.(check bool) "source" true (count (fun b -> b = Structure.Ohmic Structure.Source) > 0);
        Alcotest.(check bool) "drain" true (count (fun b -> b = Structure.Ohmic Structure.Drain) > 0);
        Alcotest.(check bool) "substrate" true (count (fun b -> b = Structure.Ohmic Structure.Substrate) > 0);
        Alcotest.(check bool) "gate" true (count (fun b -> b = Structure.Gate_surface) > 0));
    u "net doping is n-type at contacts, p-type mid-channel" (fun () ->
        let dev = Lazy.force device in
        let m = dev.Structure.mesh in
        let k_src = Mesh.index m ~ix:0 ~iy:0 in
        let k_mid = Mesh.index m ~ix:(Mesh.find_ix m dev.Structure.x_channel_mid) ~iy:0 in
        Alcotest.(check bool) "source n+" true (dev.Structure.net_doping.{k_src} > 0.0);
        Alcotest.(check bool) "channel p" true (dev.Structure.net_doping.{k_mid} < 0.0));
    u "invalid descriptions are rejected" (fun () ->
        let d = { Structure.default_description with Structure.lpoly = -1.0 } in
        Alcotest.check_raises "bad" (Invalid_argument "Structure.build: bad dimensions")
          (fun () -> ignore (Structure.build d)));
  ]

let poisson_tests =
  [
    u "equilibrium converges" (fun () ->
        let eq = Lazy.force equilibrium in
        Alcotest.(check bool) "finite psi" true
          (Tcad.Field.for_all Float.is_finite eq.Gummel.psi));
    u "deep-substrate potential equals the neutral value" (fun () ->
        let dev = Lazy.force device in
        let eq = Lazy.force equilibrium in
        let m = dev.Structure.mesh in
        let k = Mesh.index m ~ix:(m.Mesh.nx / 2) ~iy:(m.Mesh.ny - 1) in
        let expected =
          Physics.Silicon.bulk_potential_of_net_doping dev.Structure.net_doping.{k}
        in
        Test_util.check_rel "psi_bulk" ~rel:0.02 expected eq.Gummel.psi.{k});
    u "source contact pins its built-in potential" (fun () ->
        let dev = Lazy.force device in
        let eq = Lazy.force equilibrium in
        let k = Mesh.index dev.Structure.mesh ~ix:0 ~iy:0 in
        let expected =
          Physics.Silicon.bulk_potential_of_net_doping dev.Structure.net_doping.{k}
        in
        Test_util.check_rel "psi_contact" ~rel:1e-6 expected eq.Gummel.psi.{k});
    u "equilibrium electron density follows Boltzmann" (fun () ->
        let dev = Lazy.force device in
        let eq = Lazy.force equilibrium in
        let k = Mesh.index dev.Structure.mesh ~ix:0 ~iy:0 in
        let expected = dev.Structure.ni *. exp (eq.Gummel.psi.{k} /. dev.Structure.vt) in
        Test_util.check_rel "n" ~rel:0.01 expected eq.Gummel.n.{k});
    u "equilibrium drain current is negligible" (fun () ->
        let eq = Lazy.force equilibrium in
        Alcotest.(check bool) "tiny" true (Float.abs eq.Gummel.drain_current < 1e-8));
  ]

(* Shape guards: a mismatched state vector or recycled scratch must be
   rejected up front with the offending dims in the message — not crash
   (or worse, read garbage) deep inside assembly. *)
let contains_all ~msg subs =
  let contains sub =
    let n = String.length msg and m = String.length sub in
    let rec at i = i + m <= n && (String.sub msg i m = sub || at (i + 1)) in
    at 0
  in
  List.iter
    (fun sub ->
      if not (contains sub) then
        Alcotest.failf "message %S does not name %S" msg sub)
    subs

(* A scratch made for a coarser mesh than [device]'s. *)
let alien_scratch () =
  Poisson.make_scratch (Structure.build ~nx:6 ~ny:4 Structure.default_description)

let alien_shape (s : Poisson.scratch) =
  Printf.sprintf "order %d offset %d"
    (Numerics.Stencil5.order s.Poisson.sys)
    (Numerics.Stencil5.offset s.Poisson.sys)

let shape_guard_tests =
  [
    u "Poisson.solve names the offending lengths on a state mismatch" (fun () ->
        let dev = Lazy.force device in
        let m = dev.Structure.mesh in
        let n = m.Mesh.nx * m.Mesh.ny in
        let good = Tcad.Field.create n and bad = Tcad.Field.create (n - 1) in
        match
          Poisson.solve dev ~biases:Poisson.zero_bias ~phi_n:good ~phi_p:good
            ~psi0:bad
        with
        | exception Invalid_argument msg ->
          contains_all ~msg
            [ "Poisson.solve"; Printf.sprintf "psi0 %d" (n - 1);
              Printf.sprintf "needs %d" n ]
        | _ -> Alcotest.fail "mismatched psi0 accepted");
    u "Poisson.solve names both shapes on a scratch mismatch" (fun () ->
        let dev = Lazy.force device in
        let m = dev.Structure.mesh in
        let n = m.Mesh.nx * m.Mesh.ny in
        let v = Tcad.Field.create n in
        let alien = alien_scratch () in
        match
          Poisson.solve ~scratch:alien dev ~biases:Poisson.zero_bias ~phi_n:v
            ~phi_p:v ~psi0:v
        with
        | exception Invalid_argument msg ->
          contains_all ~msg
            [ "scratch shape mismatch"; alien_shape alien;
              Printf.sprintf "order %d offset %d" n m.Mesh.ny ]
        | _ -> Alcotest.fail "alien scratch accepted");
    u "Continuity.solve names the offending lengths and shapes" (fun () ->
        let dev = Lazy.force device in
        let m = dev.Structure.mesh in
        let n = m.Mesh.nx * m.Mesh.ny in
        (match
           Continuity.solve dev ~carrier:Continuity.Electrons
             ~biases:Poisson.zero_bias ~psi:(Tcad.Field.create (n + 3))
         with
        | exception Invalid_argument msg ->
          contains_all ~msg
            [ "Continuity.solve"; Printf.sprintf "psi has %d" (n + 3);
              Printf.sprintf "needs %d" n ]
        | _ -> Alcotest.fail "mismatched psi accepted");
        let alien = alien_scratch () in
        match
          Continuity.solve ~scratch:alien dev ~carrier:Continuity.Electrons
            ~biases:Poisson.zero_bias ~psi:(Tcad.Field.create n)
        with
        | exception Invalid_argument msg ->
          contains_all ~msg [ "scratch shape mismatch"; alien_shape alien ]
        | _ -> Alcotest.fail "alien scratch accepted");
    u "Continuity.solve rejects lagged densities of another length" (fun () ->
        let dev = Lazy.force device in
        let n = Tcad.Mesh.n_nodes dev.Structure.mesh in
        let short = Tcad.Field.create (n - 2) in
        match
          Continuity.solve
            ~recombination:(Continuity.default_srh, short, Tcad.Field.create n)
            dev ~carrier:Continuity.Holes ~biases:Poisson.zero_bias
            ~psi:(Tcad.Field.create n)
        with
        | exception Invalid_argument msg ->
          contains_all ~msg
            [ "lagged density length mismatch"; Printf.sprintf "%d and %d" (n - 2) n;
              Printf.sprintf "needs %d" n ]
        | _ -> Alcotest.fail "short lagged density accepted");
  ]

let transport_tests =
  [
    slow "drain current rises exponentially with gate bias" (fun () ->
        let sweep = Lazy.force lin_sweep in
        Test_util.check_increasing "Id(Vg)" sweep.Extract.ids;
        (* Exponential: the ratio of successive decades must be large. *)
        let r = sweep.Extract.ids.(6) /. sweep.Extract.ids.(0) in
        Alcotest.(check bool) "orders of magnitude" true (r > 100.0));
    slow "subthreshold slope is physical (60..120 mV/dec)" (fun () ->
        let ss = Extract.subthreshold_slope (Lazy.force lin_sweep) in
        Test_util.check_in_range "SS" ~lo:0.060 ~hi:0.120 ss);
    slow "threshold voltage is in range and slope window excludes it" (fun () ->
        let vth = Extract.threshold_voltage (Lazy.force lin_sweep) in
        Test_util.check_in_range "Vth" ~lo:0.05 ~hi:0.6 vth);
    slow "drain current grows with drain bias (DIBL + drain factor)" (fun () ->
        let dev = Lazy.force device in
        let eq = Lazy.force equilibrium in
        let at vd =
          let s =
            Gummel.solve_at dev ~from:eq
              { Poisson.zero_bias with Poisson.gate = 0.15; drain = vd }
          in
          s.Gummel.drain_current
        in
        let i1 = at 0.05 and i2 = at 0.5 in
        Alcotest.(check bool) "Id(0.5) > Id(0.05)" true (i2 > i1));
    slow "bias ramping is path-independent" (fun () ->
        let dev = Lazy.force device in
        let eq = Lazy.force equilibrium in
        let target = { Poisson.zero_bias with Poisson.gate = 0.3; drain = 0.2 } in
        let direct = Gummel.solve_at dev ~from:eq target in
        (* A detour through a point past the target in gate bias and short
           of it in drain bias takes a different ramp to the same point. *)
        let detour =
          Gummel.solve_at dev ~from:eq { Poisson.zero_bias with Poisson.gate = 0.45; drain = 0.05 }
        in
        let stepped = Gummel.solve_at dev ~from:detour target in
        Test_util.check_rel "same current" ~rel:1e-3 stepped.Gummel.drain_current
          direct.Gummel.drain_current);
    slow "SS degrades for a shorter channel" (fun () ->
        let d = Structure.default_description in
        (* Junction depth and overlap shrink with the gate length. *)
        let short =
          Structure.build
            {
              d with
              Structure.lpoly = 0.55 *. d.Structure.lpoly;
              xj = 0.55 *. d.Structure.xj;
              overlap = 0.55 *. d.Structure.overlap;
            }
        in
        let sweep_short = Extract.id_vg ~points:13 ~vg_max:0.6 short ~vd:0.05 in
        let ss_long = Extract.subthreshold_slope (Lazy.force lin_sweep) in
        let ss_short = Extract.subthreshold_slope sweep_short in
        Alcotest.(check bool) "short is worse" true (ss_short > ss_long));
    slow "SS improves with lighter halo doping at fixed length" (fun () ->
        let d = Structure.default_description in
        let heavy = Structure.build { d with Structure.np_halo = 4.0 *. d.Structure.np_halo } in
        let sweep_heavy = Extract.id_vg ~points:13 ~vg_max:0.6 heavy ~vd:0.05 in
        let ss_light = Extract.subthreshold_slope (Lazy.force lin_sweep) in
        let ss_heavy = Extract.subthreshold_slope sweep_heavy in
        Alcotest.(check bool) "heavy halo hurts SS at this geometry" true
          (ss_heavy > ss_light -. 0.002));
  ]

let extract_tests =
  [
    u "SS extraction is exact on a synthetic exponential sweep" (fun () ->
        let ss_true = 0.085 in
        let vgs = Numerics.Vec.linspace 0.0 0.4 21 in
        let ids = Array.map (fun vg -> 1e-6 *. (10.0 ** (vg /. ss_true))) vgs in
        let sweep = { Extract.vd = 0.05; vgs; ids } in
        Test_util.check_rel "SS" ~rel:1e-6 ss_true (Extract.subthreshold_slope sweep));
    u "threshold extraction interpolates in log current" (fun () ->
        let vgs = Numerics.Vec.linspace 0.0 0.4 21 in
        let ids = Array.map (fun vg -> 1e-4 *. (10.0 ** (vg /. 0.080))) vgs in
        let sweep = { Extract.vd = 0.05; vgs; ids } in
        (* criterion 1e-1: Id = 1e-4 * 10^(vg/0.08) = 1e-1 at vg = 0.24. *)
        Test_util.check_rel "Vth" ~rel:1e-6 0.24 (Extract.threshold_voltage sweep));
    u "dibl from two synthetic sweeps" (fun () ->
        let vgs = Numerics.Vec.linspace 0.0 0.4 21 in
        let mk shift = Array.map (fun vg -> 1e-4 *. (10.0 ** ((vg +. shift) /. 0.080))) vgs in
        let low = { Extract.vd = 0.05; vgs; ids = mk 0.0 } in
        let high = { Extract.vd = 1.05; vgs; ids = mk 0.05 } in
        (* Vth drops 50 mV over 1 V of drain bias. *)
        Test_util.check_rel "DIBL" ~rel:1e-6 0.05 (Extract.dibl ~low ~high));
    u "current_at interpolates log-linearly" (fun () ->
        let vgs = [| 0.0; 0.1 |] and ids = [| 1e-8; 1e-6 |] in
        let sweep = { Extract.vd = 0.05; vgs; ids } in
        Test_util.check_rel "geometric middle" ~rel:1e-9 1e-7 (Extract.current_at sweep 0.05));
    u "slope extraction fails gracefully with too few points" (fun () ->
        let vgs = [| 0.0; 0.1; 0.2 |] and ids = [| 1.0; 2.0; 3.0 |] in
        let sweep = { Extract.vd = 0.05; vgs; ids } in
        match Extract.subthreshold_slope sweep with
        | exception Failure _ -> ()
        | _ -> Alcotest.fail "expected failure");
  ]

let output_curve_tests =
  [
    slow "weak-inversion output curve saturates after a few vT" (fun () ->
        let dev = Lazy.force device in
        let sweep = Tcad.Extract.id_vd ~vd_max:0.4 ~points:8 dev ~vg:0.15 in
        Test_util.check_increasing "monotone" sweep.Tcad.Extract.ids;
        (* Saturation: doubling Vds beyond ~4 vT leaves only the DIBL
           growth, e^(eta dVds / m vT) ~ 1.4 for this device. *)
        let mid = sweep.Tcad.Extract.ids.(3) and last = sweep.Tcad.Extract.ids.(7) in
        Test_util.check_in_range "flat" ~lo:1.0 ~hi:1.5 (last /. mid));
    slow "output current grows with gate bias" (fun () ->
        let dev = Lazy.force device in
        let at vg = (Tcad.Extract.id_vd ~vd_max:0.2 ~points:4 dev ~vg).Tcad.Extract.ids.(3) in
        Alcotest.(check bool) "gate control" true (at 0.25 > 5.0 *. at 0.1));
  ]

let compact_vs_tcad_tests =
  [
    slow "compact-model SS agrees with 2-D simulation within 20%" (fun () ->
        let phys = List.hd Device.Params.paper_table2 in
        let nfet = Device.Compact.nfet phys in
        let ss_2d = Extract.subthreshold_slope (Lazy.force lin_sweep) in
        (* The shared TCAD device is the default 90nm-class description; the
           compact device is the paper's 90 nm — same class. *)
        Test_util.check_rel "SS" ~rel:0.20 ss_2d nfet.Device.Compact.ss);
  ]

let suite =
  [
    ("tcad.mesh", mesh_tests);
    ("tcad.doping", doping_tests);
    ("tcad.structure", structure_tests);
    ("tcad.poisson", poisson_tests);
    ("tcad.shape-guards", shape_guard_tests);
    ("tcad.transport", transport_tests);
    ("tcad.extract", extract_tests);
    ("tcad.output", output_curve_tests);
    ("tcad.validation", compact_vs_tcad_tests);
  ]
