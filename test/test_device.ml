open Subscale
module P = Device.Params
module Model = Device.Model
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

(* The 90 nm NFET's geometry on a 2 um gate: the short-channel terms of
   Eq. 2b and Eq. 3 vanish there. *)
let long_phys =
  { phys90 with P.lpoly = 2e-6; xj = Some nfet90.Compact.xj; overlap = Some nfet90.Compact.overlap }

let long90 = Compact.nfet long_phys

(* The model's current (Eq. 1 in weak inversion) on the 90 nm NFET at a
   fixed threshold, so the drain factor is seen without DIBL. *)
let current90 ~vth ~vgs ~vds =
  let d = nfet90 in
  Model.current ~t:d.Compact.temperature d.Compact.polarity ~m:d.Compact.m ~mu:d.Compact.mu
    ~cox:d.Compact.cox ~leff:d.Compact.leff ~neff:d.Compact.neff ~vth ~vgs ~vds

(* Eq. 2b on the model's outputs; the default calibration keeps the
   paper's k_body = 1 and adds no S_S offset. *)
let body_factor (d : Compact.t) = 1.0 +. (3.0 *. d.Compact.phys.P.tox /. d.Compact.wdep)

let subthreshold_tests =
  [
    u "slope factor is the paper's 1 + 3 Tox/Wdep" (fun () ->
        Test_util.check_rel "m" ~rel:1e-9 (body_factor long90) long90.Compact.m);
    u "short-channel factor vanishes for long channels" (fun () ->
        Test_util.check_rel "2 um" ~rel:1e-6 1.0 (long90.Compact.m /. body_factor long90);
        Alcotest.(check bool) "90 nm" true (nfet90.Compact.m /. body_factor nfet90 > 1.01));
    prop "short-channel factor decreases with length"
      (QCheck2.Gen.float_range 40e-9 400e-9) (fun lpoly ->
        (* No halo, so N_eff and W_dep stay put and only L_eff moves. *)
        let ss lpoly =
          (Compact.nfet
             { phys90 with P.lpoly; np_halo = 0.0; xj = Some 20e-9; overlap = Some 5e-9 })
            .Compact.ss
        in
        ss lpoly > ss (1.3 *. lpoly));
    u "Eq. 2b exceeds the 60 mV/dec thermal limit" (fun () ->
        List.iter
          (fun p -> Alcotest.(check bool) "limit" true ((Compact.nfet p).Compact.ss > 0.0595))
          (P.paper_table2 @ P.paper_table3));
    u "i0 prefactor is positive and scales with 1/Leff" (fun () ->
        let a = Iv.specific_current nfet90 in
        let b = Iv.specific_current { nfet90 with Compact.leff = 2.0 *. nfet90.Compact.leff } in
        Alcotest.(check bool) "positive" true (b > 0.0);
        Test_util.check_rel "ratio" ~rel:1e-12 2.0 (a /. b));
    prop "Eq. 1 current has exact slope m vT" (QCheck2.Gen.float_range (-1.2) (-0.9)) (fun vgs ->
        (* Deep in weak inversion, where EKV's F(u) is e^u to 1e-8. *)
        let vth = Compact.vth nfet90 ~vds:0.5 in
        let i1 = current90 ~vth ~vgs ~vds:0.5 in
        let i2 = current90 ~vth ~vgs:(vgs +. 0.01) ~vds:0.5 in
        Float.abs (log (i2 /. i1) -. (0.01 /. (nfet90.Compact.m *. vt))) < 1e-6);
    u "Eq. 1 drain factor saturates after a few vT" (fun () ->
        let at vds = current90 ~vth:0.4 ~vgs:0.2 ~vds in
        Test_util.check_rel "saturated" ~rel:0.01 (at 0.2) (at 0.5));
    u "Eq. 1 current vanishes at vds = 0" (fun () ->
        Test_util.check_float "zero" 0.0 (current90 ~vth:0.4 ~vgs:0.2 ~vds:0.0));
  ]

let threshold_tests =
  [
    u "long-channel Vth for a 90nm-class device is ~0.4-0.6 V" (fun () ->
        Test_util.check_in_range "Vth0" ~lo:0.3 ~hi:0.7 nfet90.Compact.vth0);
    prop "long-channel Vth increases with doping" (QCheck2.Gen.float_range 1e24 1e25)
      (fun nsub ->
        let vth0 nsub = (Compact.nfet { long_phys with P.nsub }).Compact.vth0 in
        vth0 (1.5 *. nsub) > vth0 nsub);
    u "roll-off is negative and strengthens with drain bias" (fun () ->
        let rolloff vds = Compact.vth nfet90 ~vds -. nfet90.Compact.vth0 in
        Alcotest.(check bool) "negative" true (rolloff 0.0 < 0.0);
        Alcotest.(check bool) "DIBL" true (rolloff 1.0 < rolloff 0.0));
    u "roll-off vanishes for long channels" (fun () ->
        Test_util.check_in_range "tiny" ~lo:(-1e-6) ~hi:0.0
          (Compact.vth long90 ~vds:1.0 -. long90.Compact.vth0));
    u "characteristic length mixes oxide and depletion geometry" (fun () ->
        Test_util.check_rel "lt" ~rel:1e-9
          (sqrt (C.eps_si *. phys90.P.tox *. nfet90.Compact.wdep /. C.eps_ox))
          nfet90.Compact.lt);
  ]

let capacitance_tests =
  [
    u "oxide capacitance of 2.1 nm is ~16.4 mF/m^2" (fun () ->
        Test_util.check_rel "cox" ~rel:0.01 1.64e-2
          (Compact.nfet { phys90 with P.tox = 2.1e-9 }).Compact.cox);
    u "gate capacitance decomposes into channel + 2 overlap terms" (fun () ->
        let d = nfet90 and fringe = P.default_calibration.P.fringe_cap in
        Test_util.check_rel "cg" ~rel:1e-12
          ((d.Compact.cox *. d.Compact.leff)
           +. (2.0 *. ((d.Compact.cox *. d.Compact.overlap) +. fringe)))
          d.Compact.cg);
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

(* The model-* lines of golden/bit_pins.txt, computed as test/gen_golden.ml
   writes them: every device the audit checks plus the 130 nm node, and the
   90 nm devices at 250 K and 400 K.  Must stay in sync with [model_pins]
   there. *)
let model_pins () =
  let module Strategy = Scaling.Strategy in
  let selected =
    List.concat_map
      (fun node ->
        List.map
          (fun kind ->
            ( Printf.sprintf "%d-%s" node.Scaling.Roadmap.nm (Strategy.kind_key kind),
              fst (Strategy.select kind node),
              None ))
          Strategy.kinds)
      Scaling.Roadmap.nodes_with_130
  in
  let hot_cold =
    List.concat_map
      (fun kind ->
        List.map
          (fun t ->
            ( Printf.sprintf "90-%s-%gK" (Strategy.kind_key kind) t,
              fst (Strategy.select kind (Scaling.Roadmap.find 90)),
              Some t ))
          [ 250.0; 400.0 ])
      Strategy.kinds
  in
  let device_lines tag vdd (d : Compact.t) =
    List.map
      (fun (q, v) -> (Printf.sprintf "model-%s-%s" tag q, [ v ]))
      [ ("leff", d.Compact.leff); ("xj", d.Compact.xj); ("overlap", d.Compact.overlap);
        ("neff", d.Compact.neff); ("phi_f", d.Compact.phi_f); ("wdep", d.Compact.wdep);
        ("cox", d.Compact.cox); ("m", d.Compact.m); ("ss", d.Compact.ss);
        ("vth0", d.Compact.vth0); ("vbi", d.Compact.vbi); ("lt", d.Compact.lt);
        ("mu", d.Compact.mu); ("cg", d.Compact.cg); ("cg_intrinsic", d.Compact.cg_intrinsic);
        ("temperature", d.Compact.temperature); ("vth-vds0", Compact.vth d ~vds:0.0);
        ("vth-vdd", Compact.vth d ~vds:vdd); ("dibl", Compact.dibl d);
        ("ion-250mV", Iv.ion d ~vdd:0.25); ("ioff-250mV", Iv.ioff d ~vdd:0.25);
        ("ion-vdd", Iv.ion d ~vdd); ("ioff-vdd", Iv.ioff d ~vdd) ]
  in
  List.concat_map
    (fun (tag, (phys : P.physical), t) ->
      let vdd = if phys.P.vdd > 0.0 then phys.P.vdd else 0.25 in
      let nfet = Compact.nfet ?t phys and pfet = Compact.pfet ?t phys in
      let pair = { Circuits.Inverter.nfet; pfet } in
      let sizing = Circuits.Inverter.balanced_sizing () in
      let e = Analysis.Energy.analytic pair ~vdd:0.25 in
      device_lines (tag ^ "-nfet") vdd nfet
      @ device_lines (tag ^ "-pfet") vdd pfet
      @ [ (Printf.sprintf "model-%s-eq5-250mV" tag, [ Analysis.Delay.eq5 pair ~sizing ~vdd:0.25 ]);
          (Printf.sprintf "model-%s-eq5-vdd" tag, [ Analysis.Delay.eq5 pair ~sizing ~vdd ]);
          ( Printf.sprintf "model-%s-energy-250mV" tag,
            Analysis.Energy.[ e.vdd; e.e_dyn; e.e_leak; e.e_total; e.t_cycle ] ) ])
    (selected @ hot_cold)

(* [Model] is generated from [Make]'s text with [Float_num]'s operations;
   the functor applied to [Float_num] is the reference it must match. *)
module Ref = Device.Eqs.Make (Device.Eqs.Float_num)

let model_is_ref (k, f, t, (vgs, vds)) =
  let d = (Lazy.force shipped_devices).(k) in
  let p = d.Compact.phys and cal = d.Compact.cal and pol = d.Compact.polarity in
  let build b =
    b cal ~t pol ~lpoly:(f *. p.P.lpoly) ~tox:p.P.tox ~nsub:(p.P.nsub /. f) ~np_halo:p.P.np_halo
      ~xj:p.P.xj ~overlap:p.P.overlap
  in
  let m = build Model.build and r = build Ref.build in
  let open Device.Eqs in
  let vth_m = Model.vth cal ~vth0:m.vth0 ~vbi:m.vbi ~phi_f:m.phi_f ~leff:m.leff ~lt:m.lt ~vds
  and vth_r = Ref.vth cal ~vth0:r.vth0 ~vbi:r.vbi ~phi_f:r.phi_f ~leff:r.leff ~lt:r.lt ~vds in
  let current f (e : float Device.Eqs.device) vth =
    f ~t pol ~m:e.m ~mu:e.mu ~cox:e.cox ~leff:e.leff ~neff:e.neff ~vth ~vgs ~vds
  in
  let i_m = current Model.current m vth_m and i_r = current Ref.current r vth_r in
  let wn = 1e-6 and wp = 2e-6 in
  let cl_m = Model.load_capacitance cal (Model.width_sum ~wn ~wp m.cg m.cg_intrinsic)
  and cl_r = Ref.load_capacitance cal (Ref.width_sum ~wn ~wp r.cg r.cg_intrinsic) in
  let tp_m = Model.delay ~cl:cl_m ~vdd:vds (Model.mean_current ~wn ~wp i_m i_m)
  and tp_r = Ref.delay ~cl:cl_r ~vdd:vds (Ref.mean_current ~wn ~wp i_r i_r) in
  let e_m = Model.energy ~stages:30.0 ~alpha:0.1 ~cl:cl_m ~vdd:vds ~tp:tp_m ~i_leak:i_m
  and e_r = Ref.energy ~stages:30.0 ~alpha:0.1 ~cl:cl_r ~vdd:vds ~tp:tp_r ~i_leak:i_r in
  List.for_all2
    (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
    [ m.xj; m.overlap; m.leff; m.neff; m.phi_f; m.wdep; m.cox; m.m; m.ss; m.vth0; m.vbi; m.lt;
      m.mu; m.cg; m.cg_intrinsic; vth_m; Model.dibl cal ~leff:m.leff ~lt:m.lt; i_m; cl_m; tp_m;
      e_m.t_cycle; e_m.e_dyn; e_m.e_leak; e_m.e_total ]
    [ r.xj; r.overlap; r.leff; r.neff; r.phi_f; r.wdep; r.cox; r.m; r.ss; r.vth0; r.vbi; r.lt;
      r.mu; r.cg; r.cg_intrinsic; vth_r; Ref.dibl cal ~leff:r.leff ~lt:r.lt; i_r; cl_r; tp_r;
      e_r.t_cycle; e_r.e_dyn; e_r.e_leak; e_r.e_total ]

let model_bit_tests =
  [
    prop "Model is Make (Float_num), bit for bit" ~count:300
      QCheck2.Gen.(
        quad (int_bound 19) (float_range 0.8 1.25)
          (oneofl [ 250.0; 300.0; 400.0 ])
          (pair (float_range (-0.2) 1.2) (float_range 0.0 1.2)))
      model_is_ref;
    u "the model chain reproduces its pinned bits" (fun () ->
        let pinned =
          In_channel.with_open_text (Test_util.bit_pins_path ()) In_channel.input_lines
          |> List.filter (String.starts_with ~prefix:"model-")
        in
        let computed = model_pins () in
        Alcotest.(check int) "pinned lines" (List.length computed) (List.length pinned);
        List.iter2
          (fun line (label, values) ->
            match String.split_on_char ' ' line with
            | l :: bits when String.equal l label ->
              Test_util.check_all_bits label
                (Array.of_list (List.map float_of_string bits))
                (Array.of_list values)
            | _ -> Alcotest.failf "expected a pin for %s, got %S" label line)
          pinned computed);
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
    ("device.model_bits", model_bit_tests);
  ]
