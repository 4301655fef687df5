type t = {
  phys : Params.physical;
  cal : Params.calibration;
  polarity : Params.polarity;
  leff : float;
  xj : float;
  overlap : float;
  neff : float;
  phi_f : float;
  wdep : float;
  cox : float;
  m : float;
  ss : float;
  vth0 : float;
  vbi : float;
  lt : float;
  mu : float;
  cg : float;
  cg_intrinsic : float;
  temperature : float;
}

let sd_doping = Physics.Constants.per_cm3 1.0e20

(* Field reads go through the [Params.read_*] traced accessors so the
   memo-soundness auditor can record the exact parameter read-set of a
   characterization and cross-check it against the memo key coverage. *)
let build ?(t = Physics.Constants.t_room) polarity cal (phys : Params.physical) =
  let vt = Physics.Constants.thermal_voltage t in
  let tox = Params.read_tox phys in
  let lpoly = Params.read_lpoly phys in
  let xj =
    match Params.read_xj phys with
    | Some v -> v
    | None -> Params.read_xj_fraction cal *. lpoly
  in
  let overlap =
    match Params.read_overlap phys with
    | Some v -> v
    | None -> Params.read_overlap_fraction cal *. lpoly
  in
  let leff = lpoly -. (2.0 *. overlap) in
  if leff <= 0.0 then invalid_arg "Compact.build: overlap consumes the whole gate";
  (* Channel-averaged halo weight: the pockets occupy a width ~ x_j on each
     side, so their share of the channel falls as the channel lengthens —
     the reason long-channel devices shed their halos (paper Sec. 3.1). *)
  let halo_fraction = Float.min 0.85 (Params.read_k_halo cal *. xj /. leff) in
  let nsub = Params.read_nsub phys in
  let nhalo = Params.nhalo_net phys in
  let neff = nsub +. (halo_fraction *. (nhalo -. nsub)) in
  let phi_f = Physics.Silicon.fermi_potential ~t neff in
  let wdep = Physics.Silicon.depletion_width ~psi:(2.0 *. phi_f) ~doping:neff in
  let cox = Capacitance.oxide_area_capacitance ~tox in
  let ss =
    Subthreshold.inverse_slope ~k_body:(Params.read_k_body cal)
      ~k_sce:(Params.read_k_sce cal) ~k_lambda:(Params.read_k_lambda cal)
      ~ss_offset:(Params.read_ss_offset cal) ~t
      ~xj_exp:(Params.read_lambda_xj_exp cal) ~xj ~tox ~wdep ~leff ()
  in
  let m = ss /. (2.3 *. vt) in
  let vth0 = Threshold.long_channel ~t ~neff ~cox () in
  let vbi = Physics.Silicon.builtin_potential ~t neff sd_doping in
  let lt = Threshold.characteristic_length ~tox ~wdep in
  let carrier =
    match polarity with
    | Params.Nfet -> Physics.Mobility.Electron
    | Params.Pfet -> Physics.Mobility.Hole
  in
  let mu = Params.read_mu_factor cal *. Physics.Mobility.channel ~t carrier neff in
  let cg = Capacitance.gate ~fringe:(Params.read_fringe_cap cal) ~tox ~leff ~overlap () in
  let cg_intrinsic = cox *. (leff +. (2.0 *. overlap)) in
  {
    phys;
    cal;
    polarity;
    leff;
    xj;
    overlap;
    neff;
    phi_f;
    wdep;
    cox;
    m;
    ss;
    vth0;
    vbi;
    lt;
    mu;
    cg;
    cg_intrinsic;
    temperature = t;
  }

(* Every field, derived ones included: [Corners.apply] overrides [mu] after
   construction, so the constructor inputs alone do not name a device. *)
let key d =
  Exec.Key.(
    fields "compact"
      [ ("phys", Params.physical_key d.phys);
        ("cal", Params.calibration_key d.cal);
        ("polarity", Params.polarity_key d.polarity);
        ("t", float d.temperature);
        ("leff", float d.leff);
        ("xj", float d.xj);
        ("overlap", float d.overlap);
        ("neff", float d.neff);
        ("phi_f", float d.phi_f);
        ("wdep", float d.wdep);
        ("cox", float d.cox);
        ("m", float d.m);
        ("ss", float d.ss);
        ("vth0", float d.vth0);
        ("vbi", float d.vbi);
        ("lt", float d.lt);
        ("mu", float d.mu);
        ("cg", float d.cg);
        ("cg_intrinsic", float d.cg_intrinsic) ])

let nfet ?(cal = Params.default_calibration) ?t phys = build ?t Params.Nfet cal phys
let pfet ?(cal = Params.default_calibration) ?t phys = build ?t Params.Pfet cal phys

let vth dev ~vds =
  dev.vth0
  +. Threshold.rolloff ~k_vth_sce:(Params.read_k_vth_sce dev.cal)
       ~k_dibl:(Params.read_k_dibl dev.cal) ~vbi:dev.vbi
       ~surface_potential:(2.0 *. dev.phi_f) ~vds ~leff:dev.leff ~lt:dev.lt ()
  +. Params.read_vth_offset dev.cal

let with_vth_shift dev shift =
  { dev with cal = { dev.cal with Params.vth_offset = dev.cal.Params.vth_offset +. shift } }

let dibl dev =
  Params.read_k_vth_sce dev.cal *. Params.read_k_dibl dev.cal
  *. exp (-.dev.leff /. (2.0 *. dev.lt))

let mobility_ratio =
  Physics.Mobility.channel Physics.Mobility.Electron (Physics.Constants.per_cm3 2e18)
  /. Physics.Mobility.channel Physics.Mobility.Hole (Physics.Constants.per_cm3 2e18)

let to_tcad_description dev =
  {
    Tcad.Structure.polarity =
      (match dev.polarity with
       | Params.Nfet -> Tcad.Structure.Nchannel
       | Params.Pfet -> Tcad.Structure.Pchannel);
    lpoly = dev.phys.Params.lpoly;
    tox = dev.phys.Params.tox;
    nsub = dev.phys.Params.nsub;
    np_halo = dev.phys.Params.np_halo;
    xj = dev.xj;
    nsd = sd_doping;
    overlap = dev.overlap;
    halo_depth_frac = 0.5;
    halo_sigma_frac = 0.45;
    gate_doping = Physics.Constants.per_cm3 1.0e20;
    temperature = dev.temperature;
  }
