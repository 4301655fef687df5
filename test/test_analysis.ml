open Subscale
module Vtc = Analysis.Vtc
module Snm = Analysis.Snm
module Delay = Analysis.Delay
module Energy = Analysis.Energy
module Metrics = Analysis.Metrics
module Inv = Circuits.Inverter

let u = Test_util.case
let slow = Test_util.slow_case

let phys90 = List.hd Device.Params.paper_table2
let phys32 = List.nth Device.Params.paper_table2 3
let pair = Inv.pair_of_physical phys90
let pair32 = Inv.pair_of_physical phys32
let sizing = Inv.balanced_sizing ()

let vtc_tests =
  [
    u "analytic VTC is monotone decreasing" (fun () ->
        let c = Vtc.analytic pair ~sizing ~vdd:0.25 in
        Array.iteri
          (fun i v ->
            if i > 0 && v > c.Vtc.vout.(i - 1) +. 1e-9 then
              Alcotest.failf "VTC rises at index %d" i)
          c.Vtc.vout);
    u "analytic VTC swings rail to rail" (fun () ->
        let c = Vtc.analytic pair ~sizing ~vdd:0.25 in
        Test_util.check_rel "high" ~rel:0.03 0.25 c.Vtc.vout.(0);
        Test_util.check_in_range "low" ~lo:(-0.003) ~hi:0.01
          c.Vtc.vout.(Array.length c.Vtc.vout - 1));
    u "balanced switching threshold sits mid-rail (analytic)" (fun () ->
        let c = Vtc.analytic pair ~sizing ~vdd:0.25 in
        Test_util.check_in_range "VM" ~lo:0.09 ~hi:0.16 (Vtc.switching_threshold c));
    u "peak gain magnitude exceeds one at 250 mV" (fun () ->
        let c = Vtc.analytic pair ~sizing ~vdd:0.25 in
        let g = Vtc.gain c in
        let peak = Array.fold_left (fun acc v -> Float.min acc v) 0.0 g in
        Alcotest.(check bool) "regenerative" true (peak < -1.5));
    u "spice and analytic VTC agree loosely mid-swing" (fun () ->
        let a = Vtc.analytic ~points:41 pair ~sizing ~vdd:0.25 in
        let s = Vtc.spice ~points:41 pair ~sizing ~vdd:0.25 in
        let mid = 20 in
        Alcotest.(check bool) "within 40 mV" true
          (Float.abs (a.Vtc.vout.(mid) -. s.Vtc.vout.(mid)) < 0.04));
    u "gain array has the curve's length" (fun () ->
        let c = Vtc.analytic ~points:33 pair ~sizing ~vdd:0.25 in
        Alcotest.(check int) "len" 33 (Array.length (Vtc.gain c)));
    u "analytic VTC allocates nothing directly on the major heap" (fun () ->
        (* Measured: 0 words.  The four 804-sample arrays it used to build
           went straight to the major heap (3220 words per call). *)
        let curve () = ignore (Vtc.analytic ~points:201 pair32 ~sizing ~vdd:0.25) in
        curve ();
        let direct () =
          let _, promoted, major = Gc.counters () in
          major -. promoted
        in
        let before = direct () in
        curve ();
        Test_util.check_float "direct major words" 0.0 (direct () -. before));
  ]

let snm_tests =
  [
    u "inverter SNM at 250 mV is positive and below Vdd/2" (fun () ->
        let m = Snm.inverter pair ~sizing ~vdd:0.25 in
        Test_util.check_in_range "snm" ~lo:0.02 ~hi:0.125 m.Snm.snm);
    u "margins satisfy their defining identities" (fun () ->
        let m = Snm.inverter pair ~sizing ~vdd:0.25 in
        Test_util.check_rel "nml" ~rel:1e-9 (m.Snm.vil -. m.Snm.vol) m.Snm.nml;
        Test_util.check_rel "nmh" ~rel:1e-9 (m.Snm.voh -. m.Snm.vih) m.Snm.nmh;
        Test_util.check_rel "snm" ~rel:1e-9 (Float.min m.Snm.nml m.Snm.nmh) m.Snm.snm;
        Alcotest.(check bool) "vil < vih" true (m.Snm.vil < m.Snm.vih));
    u "SNM grows with supply voltage" (fun () ->
        let at vdd = (Snm.inverter pair ~sizing ~vdd).Snm.snm in
        Alcotest.(check bool) "vdd helps" true (at 0.3 > at 0.2));
    u "spice engine reports more degradation at 32 nm than analytic" (fun () ->
        let ana = (Snm.inverter ~engine:`Analytic pair32 ~sizing ~vdd:0.25).Snm.snm in
        let sp = (Snm.inverter ~engine:`Spice pair32 ~sizing ~vdd:0.25).Snm.snm in
        Alcotest.(check bool) "dibl hurts" true (sp < ana));
    u "insufficient gain raises at very low supply" (fun () ->
        match Snm.inverter pair ~sizing ~vdd:0.04 with
        | exception Failure _ -> ()
        | m -> Alcotest.(check bool) "or tiny" true (m.Snm.snm < 0.01));
    u "butterfly of two ideal step curves gives the square side" (fun () ->
        (* Two complementary ideal inverters with full swing 1.0 and abrupt
           switch at 0.5: lobes are 0.5 x 0.5 squares. *)
        let n = 201 in
        let vin = Numerics.Vec.linspace 0.0 1.0 n in
        let steep x = 1.0 /. (1.0 +. exp ((x -. 0.5) /. 0.005)) in
        let v1 = Array.map steep vin in
        let snm = Snm.butterfly_snm ~vin ~v1 ~v2:(Array.copy v1) in
        Test_util.check_rel "square" ~rel:0.08 0.5 snm);
    u "butterfly of identical diagonal lines is zero" (fun () ->
        let vin = Numerics.Vec.linspace 0.0 1.0 51 in
        let v1 = Array.copy vin in
        Alcotest.(check bool) "no lobe" true
          (Snm.butterfly_snm ~vin ~v1 ~v2:(Array.copy vin) < 1e-6));
  ]

let delay_tests =
  [
    u "Eq. 5 delay is positive and falls with supply" (fun () ->
        let d1 = Delay.eq5 pair ~sizing ~vdd:0.25 in
        let d2 = Delay.eq5 pair ~sizing ~vdd:0.35 in
        Alcotest.(check bool) "positive" true (d1 > 0.0);
        Alcotest.(check bool) "exponential speedup" true (d2 < d1 /. 5.0));
    u "Eq. 6 factor ranks nodes like Eq. 5 at fixed Ioff conditions" (fun () ->
        let f90 = Metrics.delay_factor pair ~sizing in
        let f32 = Metrics.delay_factor pair32 ~sizing in
        let d90 = Delay.eq5 pair ~sizing ~vdd:0.25 in
        let d32 = Delay.eq5 pair32 ~sizing ~vdd:0.25 in
        Alcotest.(check bool) "same ordering" true ((f32 > f90) = (d32 > d90)));
    slow "measured delay tracks Eq. 5 within a factor of 3" (fun () ->
        let vdd = 0.3 in
        let analytic = Delay.eq5 pair ~sizing ~vdd in
        let m = Delay.measured ~steps:400 pair ~vdd in
        Test_util.check_in_range "ratio" ~lo:(1.0 /. 3.0) ~hi:3.0 (m.Delay.tp /. analytic));
    slow "rising and falling delays are balanced for balanced sizing" (fun () ->
        let m = Delay.measured ~steps:400 pair ~vdd:0.3 in
        Test_util.check_in_range "symmetry" ~lo:0.4 ~hi:2.5
          (m.Delay.tp_rise /. m.Delay.tp_fall));
  ]

let energy_tests =
  [
    u "breakdown components add up" (fun () ->
        let b = Energy.analytic pair ~vdd:0.25 in
        Test_util.check_rel "sum" ~rel:1e-12 (b.Energy.e_dyn +. b.Energy.e_leak)
          b.Energy.e_total);
    u "dynamic energy scales as Vdd^2" (fun () ->
        let b1 = Energy.analytic pair ~vdd:0.2 in
        let b2 = Energy.analytic pair ~vdd:0.4 in
        Test_util.check_rel "quadratic" ~rel:1e-9 4.0 (b2.Energy.e_dyn /. b1.Energy.e_dyn));
    u "leakage energy dominates at very low Vdd" (fun () ->
        let b = Energy.analytic pair ~vdd:0.1 in
        Alcotest.(check bool) "leak heavy" true (b.Energy.e_leak > b.Energy.e_dyn));
    u "dynamic energy dominates well above Vmin" (fun () ->
        let b = Energy.analytic pair ~vdd:0.5 in
        Alcotest.(check bool) "dyn heavy" true (b.Energy.e_dyn > b.Energy.e_leak));
    u "vmin is an interior minimum" (fun () ->
        let r = Energy.vmin pair in
        let e v = (Energy.analytic pair ~vdd:v).Energy.e_total in
        Test_util.check_in_range "vmin" ~lo:0.1 ~hi:0.5 r.Energy.vmin;
        Alcotest.(check bool) "below +20%" true (r.Energy.e_min <= e (1.2 *. r.Energy.vmin));
        Alcotest.(check bool) "below -20%" true (r.Energy.e_min <= e (0.8 *. r.Energy.vmin)));
    u "kvmin is a few units of SS" (fun () ->
        let r = Energy.vmin pair in
        (* K_Vmin = V_min / S_S, the proportionality the paper takes from
           refs [17][18]. *)
        Test_util.check_in_range "kvmin" ~lo:1.5 ~hi:5.0
          (r.Energy.vmin /. pair.Inv.nfet.Device.Compact.ss));
    u "energy factor CL*SS^2 tracks analytic energy across nodes (Eq. 8)" (fun () ->
        let r90 = Energy.vmin pair and r32 = Energy.vmin pair32 in
        let f90 = Metrics.energy_factor pair ~sizing in
        let f32 = Metrics.energy_factor pair32 ~sizing in
        Test_util.check_rel "factor tracks energy" ~rel:0.30
          (r32.Energy.e_min /. r90.Energy.e_min) (f32 /. f90));
    slow "measured chain energy agrees with the analytic model" (fun () ->
        let vdd = 0.3 in
        let analytic = (Energy.analytic ~stages:10 pair ~vdd).Energy.e_total in
        let measured = Energy.measured ~stages:10 ~steps:600 pair ~vdd in
        Test_util.check_in_range "ratio" ~lo:0.4 ~hi:2.5 (measured /. analytic));
  ]

let metrics_tests =
  [
    u "energy factor formula" (fun () ->
        let cl = Inv.load_capacitance pair sizing in
        let ss = pair.Inv.nfet.Device.Compact.ss in
        Test_util.check_rel "clss2" ~rel:1e-12 (cl *. ss *. ss)
          (Metrics.energy_factor pair ~sizing));
    u "normalize pins the first element to one" (fun () ->
        Alcotest.(check (list (float 1e-9))) "norm" [ 1.0; 0.5; 2.0 ]
          (Metrics.normalize [ 4.0; 2.0; 8.0 ]));
    u "normalize rejects a zero lead" (fun () ->
        Alcotest.check_raises "zero" (Invalid_argument "Metrics.normalize: zero first element")
          (fun () -> ignore (Metrics.normalize [ 0.0; 1.0 ])));
  ]

let suite =
  [
    ("analysis.vtc", vtc_tests);
    ("analysis.snm", snm_tests);
    ("analysis.delay", delay_tests);
    ("analysis.energy", energy_tests);
    ("analysis.metrics", metrics_tests);
  ]
