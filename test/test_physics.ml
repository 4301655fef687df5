open Subscale
module C = Physics.Constants
module Si = Physics.Silicon
module Mob = Physics.Mobility

let u = Test_util.case
let prop = Test_util.prop

let positive_float lo hi = QCheck2.Gen.float_range lo hi

let constants_tests =
  [
    u "thermal voltage at 300 K is ~25.85 mV" (fun () ->
        Test_util.check_rel "vT" ~rel:1e-3 25.85e-3 C.vt_room);
    u "thermal voltage scales linearly with T" (fun () ->
        Test_util.check_rel "vT(600)/vT(300)" ~rel:1e-12 2.0
          (C.thermal_voltage 600.0 /. C.thermal_voltage 300.0));
    u "eps_si/eps_ox = 3" (fun () ->
        Test_util.check_rel "ratio" ~rel:1e-9 3.0 (C.eps_si /. C.eps_ox));
    u "nm conversion" (fun () -> Test_util.check_float "65 nm" 65e-9 (C.nm 65.0));
    u "um conversion" (fun () -> Test_util.check_float "1 um" 1e-6 (C.um 1.0));
    prop "to_nm inverts nm" (positive_float 0.1 1000.0) (fun x ->
        Float.abs (C.to_nm (C.nm x) -. x) < 1e-9 *. x);
    prop "to_per_cm3 inverts per_cm3" (positive_float 1e15 1e21) (fun n ->
        Float.abs (C.to_per_cm3 (C.per_cm3 n) -. n) < 1e-9 *. n);
    prop "to_pa_per_um inverts pa_per_um" (positive_float 0.1 1e6) (fun i ->
        Float.abs (C.to_pa_per_um (C.pa_per_um i) -. i) < 1e-9 *. i);
    u "100 pA/um is 1e-4 A/m" (fun () ->
        Test_util.check_rel "pa_per_um" ~rel:1e-12 1e-4 (C.pa_per_um 100.0));
  ]

let silicon_tests =
  [
    u "intrinsic density at 300 K is ~1e16 m^-3" (fun () ->
        Test_util.check_in_range "ni" ~lo:5e15 ~hi:2e16 Si.ni_room);
    u "intrinsic density grows with temperature" (fun () ->
        Alcotest.(check bool) "ni(350) > ni(300)" true
          (Si.intrinsic_density 350.0 > Si.intrinsic_density 300.0));
    u "fermi potential of 1e18 cm^-3 is ~0.47 V" (fun () ->
        Test_util.check_rel "phi_F" ~rel:0.05 0.47 (Si.fermi_potential (C.per_cm3 1e18)));
    prop "fermi potential increases with doping" (positive_float 1e22 1e25) (fun n ->
        Si.fermi_potential (2.0 *. n) > Si.fermi_potential n);
    u "fermi potential rejects non-positive doping" (fun () ->
        Alcotest.check_raises "invalid"
          (Invalid_argument "Silicon.fermi_potential: doping must be positive") (fun () ->
            ignore (Si.fermi_potential 0.0)));
    prop "depletion width shrinks with doping" (positive_float 1e22 1e25) (fun n ->
        Si.depletion_width ~psi:1.0 ~doping:(2.0 *. n) < Si.depletion_width ~psi:1.0 ~doping:n);
    prop "depletion width grows with band bending" (positive_float 0.2 1.0) (fun psi ->
        Si.depletion_width ~psi:(psi +. 0.1) ~doping:1e24
        > Si.depletion_width ~psi ~doping:1e24);
    u "depletion width at zero bending is zero" (fun () ->
        Test_util.check_float "W" 0.0 (Si.depletion_width ~psi:0.0 ~doping:1e24));
    u "max depletion width matches depletion at 2 phi_F" (fun () ->
        (* The compact model's W_dep is the maximum depletion width of its
           effective doping. *)
        let d = Device.Compact.nfet (List.hd Device.Params.paper_table2) in
        let n = d.Device.Compact.neff in
        Test_util.check_rel "Wdm" ~rel:1e-12
          (Si.depletion_width ~psi:(2.0 *. Si.fermi_potential n) ~doping:n)
          d.Device.Compact.wdep);
    u "max depletion width of 2e18 cm^-3 is ~25 nm" (fun () ->
        (* Without a halo the model's N_eff is N_sub. *)
        let p = List.hd Device.Params.paper_table2 in
        Test_util.check_in_range "Wdm" ~lo:15e-9 ~hi:35e-9
          (Device.Compact.nfet { p with Device.Params.nsub = C.per_cm3 2e18; np_halo = 0.0 })
            .Device.Compact.wdep);
    u "builtin potential of 1e18/1e20 junction is ~1 V" (fun () ->
        Test_util.check_in_range "Vbi" ~lo:0.9 ~hi:1.15
          (Si.builtin_potential (C.per_cm3 1e18) (C.per_cm3 1e20)));
    prop "bulk potential is odd in net doping" (positive_float 1e20 1e26) (fun d ->
        Float.abs
          (Si.bulk_potential_of_net_doping d +. Si.bulk_potential_of_net_doping (-.d))
        < 1e-12);
    prop "bulk potential stays finite for huge negative doping"
      (positive_float 1e24 1e27) (fun d ->
        Float.is_finite (Si.bulk_potential_of_net_doping (-.d)));
    u "bulk potential of n-type 1e20 cm^-3 is ~0.58 V" (fun () ->
        Test_util.check_rel "psi" ~rel:0.05 0.58
          (Si.bulk_potential_of_net_doping (C.per_cm3 1e20)));
    u "bulk potential of zero net doping is zero" (fun () ->
        Test_util.check_float "psi" 0.0 (Si.bulk_potential_of_net_doping 0.0));
  ]

let mobility_tests =
  [
    u "electron low-field mobility exceeds holes'" (fun () ->
        let n = C.per_cm3 1e18 in
        Alcotest.(check bool) "mu_n > mu_p" true
          (Mob.low_field Mob.Electron n > Mob.low_field Mob.Hole n));
    u "lightly doped electron mobility is ~0.14 m^2/Vs" (fun () ->
        Test_util.check_in_range "mu" ~lo:0.12 ~hi:0.15
          (Mob.low_field Mob.Electron (C.per_cm3 1e15)));
    prop "mobility decreases with doping" (positive_float 1e21 1e25) (fun n ->
        Mob.low_field Mob.Electron (2.0 *. n) < Mob.low_field Mob.Electron n);
    u "mobility stays above the Arora floor" (fun () ->
        Alcotest.(check bool) "floor" true
          (Mob.low_field Mob.Electron (C.per_cm3 1e21) > 68.5e-4 *. 0.99));
    prop "field degradation reduces mobility" (positive_float 1e6 5e8) (fun e ->
        Mob.effective_field_degradation ~mu0:0.1 ~e_eff:e ~e_crit:9e7 ~exponent:1.6 < 0.1);
    u "channel mobility is below bulk" (fun () ->
        let n = C.per_cm3 2e18 in
        Alcotest.(check bool) "surface < bulk" true
          (Mob.channel Mob.Electron n < Mob.low_field Mob.Electron n));
    u "channel mobility applies the fixed vertical field" (fun () ->
        let n = C.per_cm3 2e18 in
        Test_util.check_rel "mu_eff" ~rel:1e-12
          (Mob.effective_field_degradation
             ~mu0:(0.55 *. Mob.low_field Mob.Electron n)
             ~e_eff:5e7 ~e_crit:9e7 ~exponent:1.6)
          (Mob.channel Mob.Electron n));
    u "electron saturation velocity ~1e5 m/s" (fun () ->
        (* v_sat = E_c mu / 2, read back through the critical field. *)
        let n = C.per_cm3 2e18 in
        Test_util.check_rel "vsat" ~rel:0.1 1.05e5
          (Mob.critical_field Mob.Electron n *. Mob.channel Mob.Electron n /. 2.0));
    u "critical field is 2 vsat / mu" (fun () ->
        let n = C.per_cm3 2e18 in
        Test_util.check_rel "Ec" ~rel:1e-9
          (2.0 *. 1.07e5 /. Mob.channel Mob.Electron n)
          (Mob.critical_field Mob.Electron n));
  ]

let suite =
  [
    ("physics.constants", constants_tests);
    ("physics.silicon", silicon_tests);
    ("physics.mobility", mobility_tests);
  ]
