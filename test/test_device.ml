open Subscale
module P = Device.Params
module Sub = Device.Subthreshold
module Th = Device.Threshold
module Cap = Device.Capacitance
module Compact = Device.Compact
module Iv = Device.Iv_model
module C = Physics.Constants

let u = Test_util.case
let prop = Test_util.prop

let phys90 = List.hd P.paper_table2
let phys32 = List.nth P.paper_table2 3
let nfet90 = Compact.nfet phys90
let nfet32 = Compact.nfet phys32
let pfet90 = Compact.pfet phys90
let vt = C.vt_room

(* [Iv.eval_into] as a (id, gm, gds) triple. *)
let eval c ~vgs ~vds =
  let b = [| vgs; vds; 0.0 |] in
  Iv.eval_into c b;
  (b.(0), b.(1), b.(2))

let params_tests =
  [
    u "nhalo_net sums substrate and pocket" (fun () ->
        Test_util.check_rel "nhalo" ~rel:1e-9 (C.per_cm3 3.63e18) (P.nhalo_net phys90));
    u "paper tables have four nodes in descending order" (fun () ->
        Alcotest.(check (list int)) "t2" [ 90; 65; 45; 32 ]
          (List.map (fun p -> p.P.node_nm) P.paper_table2);
        Alcotest.(check (list int)) "t3" [ 90; 65; 45; 32 ]
          (List.map (fun p -> p.P.node_nm) P.paper_table3));
    u "table 3 channels are longer than table 2's" (fun () ->
        List.iter2
          (fun t2 t3 -> Alcotest.(check bool) "longer" true (t3.P.lpoly > t2.P.lpoly))
          P.paper_table2 P.paper_table3);
    u "default calibration is self-consistent" (fun () ->
        let cal = P.default_calibration in
        Alcotest.(check bool) "leff positive" true (1.0 -. (2.0 *. cal.P.overlap_fraction) > 0.0);
        Alcotest.(check bool) "positive knobs" true
          (cal.P.k_body > 0.0 && cal.P.k_sce > 0.0 && cal.P.k_lambda > 0.0));
  ]

let subthreshold_tests =
  [
    u "slope factor is the paper's 1 + 3 Tox/Wdep" (fun () ->
        Test_util.check_rel "m" ~rel:1e-12 1.3
          (Sub.slope_factor ~tox:2e-9 ~wdep:20e-9 ()));
    u "short-channel factor vanishes for long channels" (fun () ->
        Test_util.check_rel "factor" ~rel:1e-6 1.0
          (Sub.short_channel_factor ~tox:2e-9 ~wdep:20e-9 ~leff:2e-6 ()));
    prop "short-channel factor decreases with length"
      (QCheck2.Gen.float_range 15e-9 200e-9) (fun leff ->
        Sub.short_channel_factor ~tox:2e-9 ~wdep:20e-9 ~leff ()
        > Sub.short_channel_factor ~tox:2e-9 ~wdep:20e-9 ~leff:(1.3 *. leff) ());
    u "Eq. 2b exceeds the 60 mV/dec thermal limit" (fun () ->
        Alcotest.(check bool) "limit" true
          (Sub.inverse_slope ~tox:2e-9 ~wdep:20e-9 ~leff:50e-9 () > 0.0595));
    u "xj-form lambda reduces to Eq. 2b form when omitted" (fun () ->
        let a = Sub.inverse_slope ~tox:2e-9 ~wdep:20e-9 ~leff:50e-9 () in
        let b = Sub.inverse_slope ~tox:2e-9 ~wdep:20e-9 ~leff:50e-9 ~xj:20e-9 () in
        Alcotest.(check bool) "differ" true (Float.abs (a -. b) > 0.0 || a = b));
    prop "Eq. 1 current has exact slope m vT" (QCheck2.Gen.float_range 0.0 0.3) (fun vgs ->
        let m = 1.3 and vth = 0.4 and i0 = 1e-7 in
        let i1 = Sub.current ~i0 ~m ~vth ~vgs ~vds:0.5 in
        let i2 = Sub.current ~i0 ~m ~vth ~vgs:(vgs +. 0.01) ~vds:0.5 in
        Float.abs (log (i2 /. i1) -. (0.01 /. (m *. vt))) < 1e-6);
    u "Eq. 1 drain factor saturates after a few vT" (fun () ->
        let at vds = Sub.current ~i0:1e-7 ~m:1.3 ~vth:0.4 ~vgs:0.2 ~vds in
        Test_util.check_rel "saturated" ~rel:0.01 (at 0.2) (at 0.5));
    u "Eq. 1 current vanishes at vds = 0" (fun () ->
        Test_util.check_float "zero" 0.0 (Sub.current ~i0:1e-7 ~m:1.3 ~vth:0.4 ~vgs:0.2 ~vds:0.0));
    u "i0 prefactor is positive and scales with 1/Leff" (fun () ->
        let a = Sub.i0_of_spec ~mu:0.02 ~cox:0.016 ~m:1.3 ~leff:50e-9 in
        let b = Sub.i0_of_spec ~mu:0.02 ~cox:0.016 ~m:1.3 ~leff:100e-9 in
        Test_util.check_rel "ratio" ~rel:1e-12 2.0 (a /. b));
  ]

let threshold_tests =
  [
    u "long-channel Vth for a 90nm-class device is ~0.4-0.6 V" (fun () ->
        let cox = Cap.oxide_area_capacitance ~tox:2.1e-9 in
        Test_util.check_in_range "Vth0" ~lo:0.3 ~hi:0.7
          (Th.long_channel ~neff:(C.per_cm3 2.5e18) ~cox ()));
    prop "long-channel Vth increases with doping" (QCheck2.Gen.float_range 1e24 1e25)
      (fun neff ->
        let cox = Cap.oxide_area_capacitance ~tox:2e-9 in
        Th.long_channel ~neff:(1.5 *. neff) ~cox () > Th.long_channel ~neff ~cox ());
    u "roll-off is negative and strengthens with drain bias" (fun () ->
        let args vds = Th.rolloff ~vbi:1.0 ~surface_potential:0.95 ~vds ~leff:30e-9 ~lt:10e-9 () in
        Alcotest.(check bool) "negative" true (args 0.0 < 0.0);
        Alcotest.(check bool) "DIBL" true (args 1.0 < args 0.0));
    u "roll-off vanishes for long channels" (fun () ->
        Test_util.check_in_range "tiny" ~lo:(-1e-6) ~hi:0.0
          (Th.rolloff ~vbi:1.0 ~surface_potential:0.95 ~vds:1.0 ~leff:500e-9 ~lt:10e-9 ()));
    u "characteristic length mixes oxide and depletion geometry" (fun () ->
        Test_util.check_rel "lt" ~rel:1e-9
          (sqrt (C.eps_si *. 2e-9 *. 20e-9 /. C.eps_ox))
          (Th.characteristic_length ~tox:2e-9 ~wdep:20e-9));
  ]

let capacitance_tests =
  [
    u "oxide capacitance of 2.1 nm is ~16.4 mF/m^2" (fun () ->
        Test_util.check_rel "cox" ~rel:0.01 1.64e-2 (Cap.oxide_area_capacitance ~tox:2.1e-9));
    u "gate capacitance decomposes into channel + 2 overlap terms" (fun () ->
        let tox = 2e-9 and leff = 50e-9 and overlap = 8e-9 and fringe = 0.3e-9 in
        let cox = Cap.oxide_area_capacitance ~tox in
        Test_util.check_rel "cg" ~rel:1e-12
          ((cox *. leff) +. (2.0 *. ((cox *. overlap) +. fringe)))
          (Cap.gate ~fringe ~tox ~leff ~overlap ()));
    u "fo1 load applies the load factor" (fun () ->
        let pair = Circuits.Inverter.pair_of_physical phys90 in
        let sizing = Circuits.Inverter.balanced_sizing () in
        Test_util.check_rel "cl" ~rel:1e-12
          (1.6 *. Circuits.Inverter.gate_capacitance pair sizing)
          (Circuits.Inverter.load_capacitance pair sizing));
  ]

let compact_tests =
  [
    u "derived quantities are positive and ordered" (fun () ->
        Alcotest.(check bool) "leff < lpoly" true (nfet90.Compact.leff < phys90.P.lpoly);
        Alcotest.(check bool) "wdep > 0" true (nfet90.Compact.wdep > 0.0);
        Alcotest.(check bool) "m > 1" true (nfet90.Compact.m > 1.0);
        Alcotest.(check bool) "mu > 0" true (nfet90.Compact.mu > 0.0));
    u "SS and m are mutually consistent" (fun () ->
        Test_util.check_rel "m" ~rel:1e-9 (nfet90.Compact.ss /. (2.3 *. vt)) nfet90.Compact.m);
    u "SS degrades from 90 nm to 32 nm on the paper's devices" (fun () ->
        Alcotest.(check bool) "degrades" true (nfet32.Compact.ss > nfet90.Compact.ss));
    u "Vth falls with drain bias (DIBL)" (fun () ->
        Alcotest.(check bool) "dibl" true
          (Compact.vth nfet90 ~vds:1.0 < Compact.vth nfet90 ~vds:0.0));
    u "dibl field matches the finite difference of vth" (fun () ->
        let fd = (Compact.vth nfet90 ~vds:0.0 -. Compact.vth nfet90 ~vds:1.0) /. 1.0 in
        Test_util.check_rel "dibl" ~rel:1e-6 fd (Compact.dibl nfet90));
    u "PFET mirrors the NFET with lower mobility" (fun () ->
        Alcotest.(check bool) "mu_p < mu_n" true (pfet90.Compact.mu < nfet90.Compact.mu);
        Test_util.check_rel "same ss" ~rel:1e-9 nfet90.Compact.ss pfet90.Compact.ss);
    u "mobility ratio is the sizing ratio" (fun () ->
        Test_util.check_in_range "ratio" ~lo:1.5 ~hi:5.0 Compact.mobility_ratio);
    u "geometry overrides are honored" (fun () ->
        let phys = { phys90 with P.xj = Some 10e-9; overlap = Some 5e-9 } in
        let dev = Compact.nfet phys in
        Test_util.check_float "xj" 10e-9 dev.Compact.xj;
        Test_util.check_float "overlap" 5e-9 dev.Compact.overlap;
        Test_util.check_rel "leff" ~rel:1e-12 (phys90.P.lpoly -. 10e-9) dev.Compact.leff);
    u "a heavier halo raises the effective doping and Vth0" (fun () ->
        let heavy = Compact.nfet { phys90 with P.np_halo = 3.0 *. phys90.P.np_halo } in
        Alcotest.(check bool) "neff" true (heavy.Compact.neff > nfet90.Compact.neff);
        Alcotest.(check bool) "vth0" true (heavy.Compact.vth0 > nfet90.Compact.vth0));
    u "lengthening the gate at fixed process dilutes the halo" (fun () ->
        let long_gate = Compact.nfet { phys90 with P.lpoly = 2.0 *. phys90.P.lpoly;
                                       xj = Some nfet90.Compact.xj;
                                       overlap = Some nfet90.Compact.overlap } in
        Alcotest.(check bool) "neff falls" true (long_gate.Compact.neff < nfet90.Compact.neff));
    u "overlap consuming the gate is rejected" (fun () ->
        let phys = { phys90 with P.overlap = Some (0.6 *. phys90.P.lpoly) } in
        Alcotest.check_raises "leff"
          (Invalid_argument "Compact.build: overlap consumes the whole gate") (fun () ->
            ignore (Compact.nfet phys)));
    u "to_tcad_description carries the key parameters through" (fun () ->
        let d = Compact.to_tcad_description nfet90 in
        Test_util.check_rel "lpoly" ~rel:1e-12 phys90.P.lpoly d.Tcad.Structure.lpoly;
        Test_util.check_rel "tox" ~rel:1e-12 phys90.P.tox d.Tcad.Structure.tox;
        Test_util.check_rel "xj" ~rel:1e-12 nfet90.Compact.xj d.Tcad.Structure.xj);
    u "cg_intrinsic is below the loaded cg" (fun () ->
        Alcotest.(check bool) "cg order" true
          (nfet90.Compact.cg_intrinsic < nfet90.Compact.cg));
  ]

let iv_tests =
  [
    u "current vanishes at vds = 0" (fun () ->
        Test_util.check_float ~tol:1e-12 "id" 0.0 (Iv.id nfet90 ~vgs:0.3 ~vds:0.0));
    u "negative vds is rejected" (fun () ->
        Alcotest.check_raises "vds" (Invalid_argument "Iv_model.id: vds must be non-negative")
          (fun () -> ignore (Iv.id nfet90 ~vgs:0.1 ~vds:(-0.1))));
    prop "current is monotone in vgs" (QCheck2.Gen.float_range 0.0 1.0) (fun vgs ->
        Iv.id nfet90 ~vgs:(vgs +. 0.02) ~vds:0.5 > Iv.id nfet90 ~vgs ~vds:0.5);
    prop "current is monotone in vds" (QCheck2.Gen.float_range 0.01 1.0) (fun vds ->
        Iv.id nfet90 ~vgs:0.5 ~vds:(vds +. 0.02) >= Iv.id nfet90 ~vgs:0.5 ~vds);
    u "weak-inversion slope equals the device SS" (fun () ->
        let decade v = Iv.id nfet90 ~vgs:v ~vds:0.5 in
        let measured_ss = 0.05 /. (log10 (decade 0.15) -. log10 (decade 0.10)) in
        (* DIBL is fixed here (vds constant), so the slope is pure SS. *)
        Test_util.check_rel "ss" ~rel:0.02 nfet90.Compact.ss measured_ss);
    u "weak-inversion drain factor matches (1 - e^{-vds/vT})" (fun () ->
        let f vds = Iv.id nfet90 ~vgs:0.1 ~vds in
        (* Compare the vds dependence at small vds against the Eq. 1 factor,
           with DIBL's contribution removed by using the model's own vth. *)
        let ratio = f (0.5 *. vt) /. f (5.0 *. vt) in
        (* I(vds) ~ e^{-vth(vds)/(m vT)} (1 - e^{-vds/vT}); the DIBL factor
           multiplies the ratio (vth is larger at the smaller drain bias). *)
        let dibl_comp =
          exp ((Compact.vth nfet90 ~vds:(5.0 *. vt) -. Compact.vth nfet90 ~vds:(0.5 *. vt))
               /. (nfet90.Compact.m *. vt))
        in
        let expected = (1.0 -. exp (-0.5)) /. (1.0 -. exp (-5.0)) *. dibl_comp in
        Test_util.check_rel "drain factor" ~rel:0.02 expected ratio);
    u "gm is the derivative of id" (fun () ->
        let h = 1e-4 in
        let fd = (Iv.id nfet90 ~vgs:(0.3 +. h) ~vds:0.5 -. Iv.id nfet90 ~vgs:(0.3 -. h) ~vds:0.5)
                 /. (2.0 *. h) in
        let _, gm, _ = eval (Iv.prepare nfet90) ~vgs:0.3 ~vds:0.5 in
        Test_util.check_rel "gm" ~rel:1e-3 fd gm);
    u "ion/ioff ratio at 250 mV is in the hundreds" (fun () ->
        Test_util.check_in_range "ratio" ~lo:100.0 ~hi:5000.0
          (Iv.on_off_ratio nfet90 ~vdd:0.25));
    u "specific current is positive" (fun () ->
        Alcotest.(check bool) "Is" true (Iv.specific_current nfet90 > 0.0));
    u "constant-current threshold satisfies its own criterion" (fun () ->
        let vth = Iv.threshold_const_current nfet90 ~vds:1.2 in
        let criterion = 1e-7 /. nfet90.Compact.leff in
        Test_util.check_rel "criterion" ~rel:1e-6 criterion (Iv.id nfet90 ~vgs:vth ~vds:1.2));
    u "intrinsic delay for the 90 nm device is picoseconds" (fun () ->
        Test_util.check_in_range "tau" ~lo:0.2e-12 ~hi:10e-12
          (Iv.intrinsic_delay nfet90 ~vdd:1.2));
    u "strong-inversion current is orders above weak inversion" (fun () ->
        let strong = Iv.id nfet90 ~vgs:1.2 ~vds:1.2 in
        let weak = Iv.id nfet90 ~vgs:0.2 ~vds:1.2 in
        Alcotest.(check bool) "orders" true (strong /. weak > 1e3));
  ]

(* Every shipped node/strategy pair's NFET and PFET. *)
let shipped_devices =
  lazy
    (List.concat_map
       (fun node ->
         List.concat_map
           (fun strategy ->
             match Scaling.Strategy.resolve ~node ~strategy with
             | Ok (_, _, _, pair) -> [ pair.Circuits.Inverter.nfet; pair.Circuits.Inverter.pfet ]
             | Error e -> failwith e)
           [ "super"; "sub" ])
       [ 130; 90; 65; 45; 32 ]
    |> Array.of_list)

(* A shipped device, vgs in [-0.2, 1.2] V and vds in [vds_lo, 1.2] V. *)
let gen_bias ~vds_lo =
  QCheck2.Gen.(
    triple (int_bound 19) (float_range (-0.2) 1.2) (float_range vds_lo 1.2))

(* The drain current as written before the device terms were hoisted into
   [Iv.prepare]: [Iv.eval_into] must reproduce it bit for bit. *)
let reference_id dev ~vgs ~vds =
  let vt = C.thermal_voltage dev.Compact.temperature in
  let big_f v =
    let x = 0.5 *. v in
    let l = if x > 40.0 then x else log1p (exp x) in
    l *. l
  in
  let vth = Compact.vth dev ~vds in
  let vp = (vgs -. vth) /. dev.Compact.m in
  let uf = vp /. vt and ur = (vp -. vds) /. vt in
  let carrier =
    match dev.Compact.polarity with
    | P.Nfet -> Physics.Mobility.Electron
    | P.Pfet -> Physics.Mobility.Hole
  in
  let ec = Physics.Mobility.critical_field carrier dev.Compact.neff in
  let sat = 1.0 /. (1.0 +. (2.0 *. vt *. sqrt (big_f uf) /. (ec *. dev.Compact.leff))) in
  Iv.specific_current dev *. (big_f uf -. big_f ur) *. sat

(* Fourth-order central difference of [f] at [x]. *)
let central4 f x h =
  ((8.0 *. (f (x +. h) -. f (x -. h))) -. (f (x +. (2.0 *. h)) -. f (x -. (2.0 *. h))))
  /. (12.0 *. h)

let eval_tests =
  [
    prop "eval's id is bit-identical to id and the unhoisted formula" ~count:500
      (gen_bias ~vds_lo:0.0) (fun (k, vgs, vds) ->
        let dev = (Lazy.force shipped_devices).(k) in
        let i, _, _ = eval (Iv.prepare dev) ~vgs ~vds in
        let bits = Int64.bits_of_float in
        Int64.equal (bits i) (bits (Iv.id dev ~vgs ~vds))
        && Int64.equal (bits i) (bits (reference_id dev ~vgs ~vds)));
    prop "analytic gm and gds match a 4th-order central difference" ~count:500
      (gen_bias ~vds_lo:0.01) (fun (k, vgs, vds) ->
        let c = Iv.prepare (Lazy.force shipped_devices).(k) in
        let id ~vgs ~vds =
          let i, _, _ = eval c ~vgs ~vds in
          i
        in
        let _, gm, gds = eval c ~vgs ~vds in
        let h = 1e-3 in
        let close analytic fd = Float.abs (analytic -. fd) <= 1e-6 *. Float.abs fd in
        close gm (central4 (fun vgs -> id ~vgs ~vds) vgs h)
        && close gds (central4 (fun vds -> id ~vgs ~vds) vds h));
    prop "gds is finite and positive at vds = 0" ~count:200
      (gen_bias ~vds_lo:0.0) (fun (k, vgs, _) ->
        let _, _, gds = eval (Iv.prepare (Lazy.force shipped_devices).(k)) ~vgs ~vds:0.0 in
        Float.is_finite gds && gds > 0.0);
    u "eval rejects negative vds" (fun () ->
        Alcotest.check_raises "vds" (Invalid_argument "Iv_model.eval_into: vds must be non-negative")
          (fun () -> ignore (eval (Iv.prepare nfet90) ~vgs:0.1 ~vds:(-0.1))));
  ]

let suite =
  [
    ("device.params", params_tests);
    ("device.subthreshold", subthreshold_tests);
    ("device.threshold", threshold_tests);
    ("device.capacitance", capacitance_tests);
    ("device.compact", compact_tests);
    ("device.iv_model", iv_tests);
    ("device.iv_eval", eval_tests);
  ]
