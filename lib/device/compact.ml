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

(* Field reads go through the [Params.read_*] traced accessors so the
   memo-soundness auditor can record the exact parameter read-set of a
   characterization and cross-check it against the memo key coverage. *)
let build ?(t = Physics.Constants.t_room) polarity cal (phys : Params.physical) =
  let d =
    Model.build cal ~t polarity ~lpoly:(Params.read_lpoly phys) ~tox:(Params.read_tox phys)
      ~nsub:(Params.read_nsub phys) ~np_halo:(Params.read_np_halo phys)
      ~xj:(Params.read_xj phys) ~overlap:(Params.read_overlap phys)
  in
  let open Eqs in
  { phys; cal; polarity; temperature = t; leff = d.leff; xj = d.xj; overlap = d.overlap;
    neff = d.neff; phi_f = d.phi_f; wdep = d.wdep; cox = d.cox; m = d.m; ss = d.ss;
    vth0 = d.vth0; vbi = d.vbi; lt = d.lt; mu = d.mu; cg = d.cg; cg_intrinsic = d.cg_intrinsic }

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
  Model.vth dev.cal ~vth0:dev.vth0 ~vbi:dev.vbi ~phi_f:dev.phi_f ~leff:dev.leff ~lt:dev.lt
    ~vds

let with_vth_shift dev shift =
  { dev with cal = { dev.cal with Params.vth_offset = dev.cal.Params.vth_offset +. shift } }

let dibl dev = Model.dibl dev.cal ~leff:dev.leff ~lt:dev.lt

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
    nsd = Eqs.sd_doping;
    overlap = dev.overlap;
    halo_depth_frac = 0.5;
    halo_sigma_frac = 0.45;
    gate_doping = Physics.Constants.per_cm3 1.0e20;
    temperature = dev.temperature;
  }
