open Subscale
module Vtc = Analysis.Vtc
module Snm = Analysis.Snm
module Delay = Analysis.Delay
module Energy = Analysis.Energy
module Metrics = Analysis.Metrics
module Inv = Circuits.Inverter

let u = Test_util.case
let slow = Test_util.slow_case
let prop = Test_util.prop

let phys90 = List.hd Device.Params.paper_table2
let phys32 = List.nth Device.Params.paper_table2 3
let pair = Inv.pair_of_physical phys90
let pair32 = Inv.pair_of_physical phys32
let sizing = Inv.balanced_sizing ()

(* The unstaged analytic path, kept as the reference the staged trial
   kernels must match bit for bit: each device shifted with
   Compact.with_vth_shift, Eq. 3(b)'s 804-sample sweep built as arrays and
   resampled with Interp.linear, then a gain array and the list of its
   gain = -1 crossings. *)
module Reference = struct
  let vt = Physics.Constants.vt_room
  let vth_sub dev = Device.Compact.vth dev ~vds:(10.0 *. vt)

  let io_of dev width =
    width *. Device.Iv_model.id dev ~vgs:(vth_sub dev) ~vds:(10.0 *. vt)

  let analytic ~points (pair : Inv.pair) ~(sizing : Inv.sizing) ~vdd =
    let n = pair.Inv.nfet and p = pair.Inv.pfet in
    let io_n = io_of n sizing.Inv.wn and io_p = io_of p sizing.Inv.wp in
    let m_n = n.Device.Compact.m and m_p = p.Device.Compact.m in
    let vth_n = vth_sub n and vth_p = vth_sub p in
    let eps = 1e-4 *. vdd in
    let k = 4 * points in
    let vout_sweep = Numerics.Vec.linspace eps (vdd -. eps) k in
    let vin_of_vout vout =
      let num =
        (m_n *. (vdd -. vth_p)) +. (m_p *. vth_n)
        +. (m_n *. m_p *. vt
            *. log (io_p /. io_n *. (1.0 -. exp ((vout -. vdd) /. vt))
                    /. (1.0 -. exp (-.vout /. vt))))
      in
      num /. (m_n +. m_p)
    in
    let ys = Array.init k (fun j -> vout_sweep.(k - 1 - j)) in
    let xs = Array.map vin_of_vout ys in
    let vin = Numerics.Vec.linspace 0.0 vdd points in
    let vout =
      Array.map (fun v -> Float.max 0.0 (Float.min vdd (Numerics.Interp.linear xs ys v))) vin
    in
    { Vtc.vin; vout }

  let gain { Vtc.vin; vout } =
    let n = Array.length vin in
    Array.init n (fun i ->
        if i = 0 then (vout.(1) -. vout.(0)) /. (vin.(1) -. vin.(0))
        else if i = n - 1 then (vout.(n - 1) -. vout.(n - 2)) /. (vin.(n - 1) -. vin.(n - 2))
        else (vout.(i + 1) -. vout.(i - 1)) /. (vin.(i + 1) -. vin.(i - 1)))

  let of_curve curve =
    match Numerics.Interp.crossings curve.Vtc.vin (gain curve) (-1.0) with
    | vil :: rest ->
      let vih =
        match List.rev rest with
        | vih :: _ -> vih
        | [] -> failwith "Snm.of_curve: only one gain = -1 point (insufficient gain)"
      in
      let vout_at v = Numerics.Interp.linear curve.Vtc.vin curve.Vtc.vout v in
      let voh = vout_at vil and vol = vout_at vih in
      let nml = vil -. vol and nmh = voh -. vih in
      { Snm.vil; vih; vol; voh; nml; nmh; snm = Float.min nml nmh }
    | [] -> failwith "Snm.of_curve: no gain = -1 point (insufficient gain)"

  let shifted (pair : Inv.pair) ~dvn ~dvp =
    { Inv.nfet = Device.Compact.with_vth_shift pair.Inv.nfet dvn;
      pfet = Device.Compact.with_vth_shift pair.Inv.pfet dvp }
end

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
        let g = Reference.gain c in
        let peak = Array.fold_left (fun acc v -> Float.min acc v) 0.0 g in
        Alcotest.(check bool) "regenerative" true (peak < -1.5));
    u "spice and analytic VTC agree loosely mid-swing" (fun () ->
        let a = Vtc.analytic ~points:41 pair ~sizing ~vdd:0.25 in
        let s = Vtc.spice ~points:41 pair ~sizing ~vdd:0.25 in
        let mid = 20 in
        Alcotest.(check bool) "within 40 mV" true
          (Float.abs (a.Vtc.vout.(mid) -. s.Vtc.vout.(mid)) < 0.04));
    u "analytic VTC has the requested sample count" (fun () ->
        let c = Vtc.analytic ~points:33 pair ~sizing ~vdd:0.25 in
        Alcotest.(check int) "vin" 33 (Array.length c.Vtc.vin);
        Alcotest.(check int) "vout" 33 (Array.length c.Vtc.vout));
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

(* --- Staged trial kernels ------------------------------------------- *)

(* A shipped device pair: every node of the roadmap, 130 nm included,
   under either strategy (selections are memoized, so each is made once). *)
let gen_shipped_pair =
  QCheck2.Gen.(
    map2
      (fun node kind -> snd (Scaling.Strategy.select kind node))
      (oneofl Scaling.Roadmap.nodes_with_130)
      (oneofl Scaling.Strategy.kinds))

(* What an SNM evaluation gives: the margins' bits, or the Failure it
   raised. *)
let snm_outcome f =
  match f () with
  | (m : Snm.margins) ->
    Ok
      (List.map Int64.bits_of_float
         [ m.Snm.vil; m.Snm.vih; m.Snm.vol; m.Snm.voh; m.Snm.nml; m.Snm.nmh; m.Snm.snm ])
  | exception Failure msg -> Error msg

let staged_tests =
  [
    prop "a stage's shifted SNM is the unstaged path's, bit for bit" ~count:200
      QCheck2.Gen.(
        tup4 gen_shipped_pair (float_range 0.03 0.6) (float_range (-0.08) 0.08)
          (float_range (-0.08) 0.08))
      (fun (pair, vdd, dvn, dvp) ->
        let staged =
          snm_outcome (fun () -> Snm.shifted (Snm.stage pair ~sizing ~vdd) ~dvn ~dvp)
        in
        let reference =
          snm_outcome (fun () ->
              Reference.of_curve
                (Reference.analytic ~points:201 (Reference.shifted pair ~dvn ~dvp) ~sizing ~vdd))
        in
        staged = reference);
    u "insufficient-gain failures match the unstaged path" (fun () ->
        (* At 40 mV the gain never reaches -1 for any shift; one stage
           serves every shift, as in snm_distribution. *)
        let st = Snm.stage pair ~sizing ~vdd:0.04 in
        List.iter
          (fun (dvn, dvp) ->
            let staged = snm_outcome (fun () -> Snm.shifted st ~dvn ~dvp) in
            let reference =
              snm_outcome (fun () ->
                  Reference.of_curve
                    (Reference.analytic ~points:201 (Reference.shifted pair ~dvn ~dvp) ~sizing
                       ~vdd:0.04))
            in
            (match reference with
             | Error _ -> ()
             | Ok _ -> Alcotest.fail "the reference found two gain = -1 points at 40 mV");
            Alcotest.(check bool)
              (Printf.sprintf "shift (%g, %g)" dvn dvp)
              true (staged = reference))
          [ (0.0, 0.0); (0.03, -0.02); (-0.05, 0.05) ]);
    u "the one-shot VTC is a fresh stage applied unshifted" (fun () ->
        let c = Vtc.analytic ~points:201 pair32 ~sizing ~vdd:0.25 in
        let r = Reference.analytic ~points:201 pair32 ~sizing ~vdd:0.25 in
        Test_util.check_all_bits "vin" r.Vtc.vin c.Vtc.vin;
        Test_util.check_all_bits "vout" r.Vtc.vout c.Vtc.vout);
    prop "a shifted evaluation is Iv_model on the shifted device, bit for bit" ~count:300
      QCheck2.Gen.(
        tup4 gen_shipped_pair bool (float_range 0.0 1.3) (float_range (-0.1) 0.1))
      (fun (pair, p, vdd, shift) ->
        let dev = if p then pair.Inv.pfet else pair.Inv.nfet in
        let shifted = Device.Compact.with_vth_shift dev shift in
        let c = Device.Iv_model.prepare dev in
        let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
        (* I_on, as chain_delay_distribution evaluates a stage. *)
        let b = [| vdd; vdd; shift |] in
        Device.Iv_model.eval_shifted_into c b;
        let reference = [| vdd; vdd; 0.0 |] in
        Device.Iv_model.eval_into (Device.Iv_model.prepare shifted) reference;
        (* V_th at 10 vT and I_o there, as a VTC stage evaluates a side. *)
        let vds = 10.0 *. Physics.Constants.vt_room in
        let t = [| 0.0; vds; shift |] in
        Device.Iv_model.vth_shifted_into c t;
        let vth = t.(0) in
        Device.Iv_model.eval_shifted_into c t;
        same b.(0) (Device.Iv_model.ion shifted ~vdd)
        && Array.for_all2 same reference b
        && same vth (Device.Compact.vth shifted ~vds)
        && same t.(0) (Device.Iv_model.id shifted ~vgs:vth ~vds));
  ]

(* Minor words of one Monte-Carlo distribution at one job, after a
   warm-up call. *)
let kernel_words f =
  let jobs = Exec.jobs () in
  Fun.protect ~finally:(fun () -> Exec.set_jobs jobs) @@ fun () ->
  Exec.set_jobs 1;
  ignore (f ());
  let minor0 = Gc.minor_words () in
  ignore (f ());
  Gc.minor_words () -. minor0

let memory_tests =
  [
    u "snm_distribution of 50 trials: no per-trial device or sample garbage" (fun () ->
        (* Measured: 5,723 minor words, of them 2.3k the one stage and
           about 68 a trial: 50 for the margins and the curve's small
           temporaries, the rest boxed floats at call boundaries.  The
           201-point V_out curve is the domain's own buffer.  With a fresh
           curve per trial, the results gathered in lists and the summary
           sorted and folded polymorphically: 18,573; with a shifted
           pair, a VTC and a gain array per trial and a boxed 804-sample
           walk: 354,480; with an Rng that boxed its state, 21,367. *)
        let words =
          kernel_words (fun () -> Analysis.Variability.snm_distribution ~trials:50 pair ~vdd:0.3)
        in
        Test_util.check_in_range "minor words" ~lo:0.0 ~hi:(1.05 *. 5_723.0) words);
    u "chain_delay_distribution of 20 trials: no per-stage device records" (fun () ->
        (* Measured: 2,841 minor words (3,760 with the trial results
           gathered in lists and the summary sorted and folded
           polymorphically), of them 2,400 the boxed results of the 1,200
           threshold draws; a stage's two I_on evaluations allocate
           nothing.  With two shifted devices and two prepared
           coefficient records per stage: 134,392; with an Rng that boxed
           its Int64 state, 37,354. *)
        let words =
          kernel_words (fun () ->
              Analysis.Variability.chain_delay_distribution ~trials:20 pair ~vdd:0.25)
        in
        Test_util.check_in_range "minor words" ~lo:0.0 ~hi:(1.05 *. 2_841.0) words);
  ]

(* A positive float spread over [10^lo, 10^hi]. *)
let gen_decades lo hi = QCheck2.Gen.(map (fun e -> 10.0 ** e) (float_range lo hi))

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
    prop "the trial loop's inline Eq. 5 is Model.delay, bit for bit" ~count:500
      QCheck2.Gen.(
        tup4 (gen_decades (-18.0) (-11.0)) (gen_decades (-1.5) 0.3) (gen_decades (-16.0) (-2.0))
          (gen_decades (-16.0) (-2.0)))
      (fun (cl, vdd, i_n, i_p) ->
        (* Variability.chain_delay_distributions' stage delay, as written
           there. *)
        let inline = Device.Eqs.k_d *. cl *. vdd /. (0.5 *. (i_n +. i_p)) in
        Int64.equal (Int64.bits_of_float inline)
          (Int64.bits_of_float (Device.Model.delay ~cl ~vdd (0.5 *. (i_n +. i_p)))));
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
  ]

let suite =
  [
    ("analysis.vtc", vtc_tests);
    ("analysis.snm", snm_tests);
    ("analysis.staged", staged_tests);
    ("analysis.memory", memory_tests);
    ("analysis.delay", delay_tests);
    ("analysis.energy", energy_tests);
    ("analysis.metrics", metrics_tests);
  ]
