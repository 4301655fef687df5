(* Calibration constant of the sigma_Vth expression, landing a 1 um /
   90 nm-class device near the published ~1.5-2 mV um A_VT range. *)
let k_rdf = 1.8

let sigma_vth (dev : Device.Compact.t) ~width =
  if width <= 0.0 then invalid_arg "Variability.sigma_vth: width must be positive";
  let q = Physics.Constants.q in
  k_rdf *. q /. dev.Device.Compact.cox
  *. sqrt
       (dev.Device.Compact.neff *. dev.Device.Compact.wdep
        /. (3.0 *. width *. dev.Device.Compact.leff))

type distribution = {
  samples : Numerics.Vec.t;
  mean : float;
  sigma : float;
  p95 : float;
  ratio_95_to_mean : float;
}

let summarize samples =
  if Array.length samples = 0 then invalid_arg "Variability.summarize: empty";
  let sorted = Array.copy samples in
  Numerics.Stats.sort sorted;
  let mean = Numerics.Stats.mean sorted in
  let sigma = Numerics.Stats.stddev sorted in
  let n = Array.length sorted in
  let p95 = sorted.(Int.min (n - 1) (int_of_float (0.95 *. float_of_int n))) in
  { samples = sorted; mean; sigma; p95; ratio_95_to_mean = p95 /. mean }

(* [n] draws of an (N, P) threshold-shift pair from the seed-42 stream:
   draw [k] takes the N shift, then the P shift (the goldens pin this
   order).  Kept in two flat float arrays, so no draw is boxed. *)
let draw_shifts ~n ~sn ~sp =
  let rng = Numerics.Rng.create ~seed:42 in
  let dvn = Array.make n 0.0 and dvp = Array.make n 0.0 in
  for k = 0 to n - 1 do
    dvn.(k) <- Numerics.Rng.normal rng ~mean:0.0 ~sigma:sn;
    dvp.(k) <- Numerics.Rng.normal rng ~mean:0.0 ~sigma:sp
  done;
  (dvn, dvp)

(* Monte-Carlo fan-out recipe: every random draw happens sequentially, in
   exactly the order the original single-threaded loop drew them, and only
   the (pure) per-trial evaluation goes through [Exec.map_array].  The
   sampled numbers are therefore bit-identical for any --jobs setting — the
   differential harness in test/test_exec.ml holds these paths to it.

   The draws do not depend on V_dd, so one set serves every V_dd in
   [vdds].  Trial [t]'s stage [s] takes draw [t * stages + s], and a
   trial's delay sums its stages from stage 0 upward, starting at 0.0. *)
let chain_delay_distributions ?(trials = 400) ?(stages = 30) pair ~vdds =
  if trials < 2 then invalid_arg "Variability.chain_delay_distribution: need >= 2 trials";
  let sizing = Circuits.Inverter.balanced_sizing () in
  let wn = sizing.Circuits.Inverter.wn and wp = sizing.Circuits.Inverter.wp in
  let sn = sigma_vth pair.Circuits.Inverter.nfet ~width:wn in
  let sp = sigma_vth pair.Circuits.Inverter.pfet ~width:wp in
  let dvn, dvp = draw_shifts ~n:(trials * stages) ~sn ~sp in
  let trial_ids = Array.init trials Fun.id in
  (* Each stage is Eq. 5 with the shifted pair: I_on of each device
     evaluated on coefficients prepared once, with the stage's shift added
     inside the evaluation, as Compact.with_vth_shift adds it.  The load
     capacitance is mismatch-free (geometry, not doping). *)
  let cn = Device.Iv_model.prepare pair.Circuits.Inverter.nfet in
  let cp = Device.Iv_model.prepare pair.Circuits.Inverter.pfet in
  let cl = Circuits.Inverter.load_capacitance pair sizing in
  List.map
    (fun vdd ->
      let samples =
        Exec.map_array
          (fun trial ->
            (* The trial's own bias buffer: trials run on any domain. *)
            let b = Array.make 3 0.0 in
            let total = ref 0.0 in
            for k = trial * stages to ((trial + 1) * stages) - 1 do
              b.(0) <- vdd;
              b.(1) <- vdd;
              b.(2) <- dvn.(k);
              Device.Iv_model.eval_shifted_into cn b;
              let i_n = wn *. b.(0) in
              b.(0) <- vdd;
              b.(1) <- vdd;
              b.(2) <- dvp.(k);
              Device.Iv_model.eval_shifted_into cp b;
              let i_p = wp *. b.(0) in
              (* Eq. 5, Device.Model.delay ~cl ~vdd of the mean drive,
                 written out: a call into Model would box its floats in
                 this allocation-free loop.  test_analysis's "the trial
                 loop's inline Eq. 5 is Model.delay, bit for bit" holds
                 the two together. *)
              total := !total +. (Device.Eqs.k_d *. cl *. vdd /. (0.5 *. (i_n +. i_p)))
            done;
            !total)
          trial_ids
      in
      (vdd, summarize samples))
    vdds

let chain_delay_distribution ?trials ?stages pair ~vdd =
  snd (List.hd (chain_delay_distributions ?trials ?stages pair ~vdds:[ vdd ]))

let snm_distribution ?(trials = 400) ?(sizing = Circuits.Inverter.balanced_sizing ())
    (pair : Circuits.Inverter.pair) ~vdd =
  if trials < 2 then invalid_arg "Variability.snm_distribution: need >= 2 trials";
  let sn = sigma_vth pair.Circuits.Inverter.nfet ~width:sizing.Circuits.Inverter.wn in
  let sp = sigma_vth pair.Circuits.Inverter.pfet ~width:sizing.Circuits.Inverter.wp in
  let dvn, dvp = draw_shifts ~n:trials ~sn ~sp in
  let st = Snm.stage pair ~sizing ~vdd in
  let samples =
    Exec.map_array
      (fun trial ->
        match Snm.shifted st ~dvn:dvn.(trial) ~dvp:dvp.(trial) with
        | margins -> Float.max 0.0 margins.Snm.snm
        | exception Failure _ -> 0.0)
      (Array.init trials Fun.id)
  in
  summarize samples

let delay_spread_vs_vdd ?trials pair ~vdds =
  List.map
    (fun (vdd, d) -> (vdd, d.sigma /. d.mean))
    (chain_delay_distributions ?trials pair ~vdds)
