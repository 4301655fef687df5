let vt_of dev = Physics.Constants.thermal_voltage dev.Compact.temperature

let specific_current dev =
  let vt = vt_of dev in
  2.0 *. dev.Compact.m *. dev.Compact.mu *. dev.Compact.cox *. vt *. vt /. dev.Compact.leff

type coeffs = {
  vt : float;
  m : float;
  vth0 : float;
  sce_gain : float;
  sce_bias : float;
  k_dibl : float;
  sce_decay : float;
  vth_offset : float;
  dvth_dvds : float;
  i_spec : float;
  ec_leff : float;
}

(* The factors of [Compact.vth] are kept separate and recombined in their
   original order, so the threshold (and the current) stay bit-identical
   to the unhoisted expression. *)
let prepare dev =
  let cal = dev.Compact.cal in
  let sce_gain = -.Params.read_k_vth_sce cal and k_dibl = Params.read_k_dibl cal in
  let sce_decay = exp (-.dev.Compact.leff /. (2.0 *. dev.Compact.lt)) in
  let carrier =
    match dev.Compact.polarity with
    | Params.Nfet -> Physics.Mobility.Electron
    | Params.Pfet -> Physics.Mobility.Hole
  in
  {
    vt = vt_of dev;
    m = dev.Compact.m;
    vth0 = dev.Compact.vth0;
    sce_gain;
    sce_bias = 2.0 *. (dev.Compact.vbi -. (2.0 *. dev.Compact.phi_f));
    k_dibl;
    sce_decay;
    vth_offset = Params.read_vth_offset cal;
    dvth_dvds = sce_gain *. k_dibl *. sce_decay;
    i_spec = specific_current dev;
    ec_leff = Physics.Mobility.critical_field carrier dev.Compact.neff *. dev.Compact.leff;
  }

(* [Compact.vth] at [vds] from the prepared factors, [offset] standing in
   for the calibration's V_th offset: [Compact.with_vth_shift] adds its
   shift there, so [offset = vth_offset +. shift] is the shifted device's
   threshold, bit for bit. *)
let[@inline] threshold c ~offset vds =
  c.vth0 +. (c.sce_gain *. (c.sce_bias +. (c.k_dibl *. vds)) *. c.sce_decay) +. offset

(* EKV interpolation F(u) = l^2 with l = softplus(u/2), u normalized to vT,
   so F'(u) = l * logistic(u/2).  Above u/2 = 40 softplus is the identity
   and the logistic is 1.  Velocity saturation divides by
   1 + 2 vT sqrt(F(u_f)) / (E_c L_eff); d sqrt(F(u_f)) / du_f is
   logistic(u_f/2) / 2.  The threshold moves with vds through DIBL, so
   du_f/dvds = -(dV_th/dV_ds) / (m vT) and du_r/dvds = du_f/dvds - 1/vT.
   The bias comes in and the result goes out through [b], so a caller's
   floats cross no call boundary, where they would be boxed; [eval] is
   inlined into its two entry points, so [offset] is not boxed either. *)
let[@inline] eval c ~offset b =
  let vgs = b.(0) and vds = b.(1) in
  let vth = threshold c ~offset vds in
  let vp = (vgs -. vth) /. c.m in
  let hf = 0.5 *. (vp /. c.vt) and hr = 0.5 *. ((vp -. vds) /. c.vt) in
  let ef = exp hf and er = exp hr in
  let lf = if hf > 40.0 then hf else log1p ef and lr = if hr > 40.0 then hr else log1p er in
  let sf = if hf > 40.0 then 1.0 else ef /. (1.0 +. ef)
  and sr = if hr > 40.0 then 1.0 else er /. (1.0 +. er) in
  let i_norm = (lf *. lf) -. (lr *. lr) in
  let sat = 1.0 /. (1.0 +. (2.0 *. c.vt *. sqrt (lf *. lf) /. c.ec_leff)) in
  let id = c.i_spec *. i_norm *. sat in
  (* dI/du_f and dI/du_r at fixed other argument. *)
  let di_duf =
    c.i_spec *. ((lf *. sf *. sat) -. (i_norm *. sat *. sat *. c.vt *. sf /. c.ec_leff))
  in
  let di_dur = -.c.i_spec *. lr *. sr *. sat in
  let gm = (di_duf +. di_dur) /. (c.m *. c.vt) in
  let gds = (-.c.dvth_dvds *. gm) -. (di_dur /. c.vt) in
  b.(0) <- id;
  b.(1) <- gm;
  b.(2) <- gds

let eval_into c b =
  if b.(1) < 0.0 then invalid_arg "Iv_model.eval_into: vds must be non-negative";
  eval c ~offset:c.vth_offset b

let eval_shifted_into c b =
  if b.(1) < 0.0 then invalid_arg "Iv_model.eval_shifted_into: vds must be non-negative";
  eval c ~offset:(c.vth_offset +. b.(2)) b

let vth_shifted_into c b = b.(0) <- threshold c ~offset:(c.vth_offset +. b.(2)) b.(1)

let id dev ~vgs ~vds =
  if vds < 0.0 then invalid_arg "Iv_model.id: vds must be non-negative";
  let b = [| vgs; vds; 0.0 |] in
  eval_into (prepare dev) b;
  b.(0)

let ioff dev ~vdd = id dev ~vgs:0.0 ~vds:vdd
let ion dev ~vdd = id dev ~vgs:vdd ~vds:vdd
let on_off_ratio dev ~vdd = ion dev ~vdd /. ioff dev ~vdd

let intrinsic_delay dev ~vdd = dev.Compact.cg_intrinsic *. vdd /. ion dev ~vdd

let threshold_const_current dev ~vds =
  let criterion = 1e-7 /. dev.Compact.leff in
  let f vg = id dev ~vgs:vg ~vds -. criterion in
  Numerics.Root.brent ~tol:1e-9 f (-0.5) 2.0
