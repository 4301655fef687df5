(* Interval abstract interpretation of the paper's model chain.

   The concrete pipeline (Compact.build -> Iv_model -> Delay.eq5 ->
   Energy.analytic) is re-executed over the {!Interval} domain: every
   physical parameter becomes an interval, every derived quantity a
   guaranteed enclosure of all concrete values the parameter box can
   produce.  The mirror follows the concrete formulas operation by
   operation — including their branches (W_dep clamp at psi <= 0, the
   softplus large-x branch, the halo-fraction min) — so enclosure is by
   construction, and single-variable monotone stages (phi_F, mobility,
   E_crit) are lifted by evaluating the *actual* library function at the
   interval endpoints, which keeps audited and executed code from ever
   drifting apart.

   On top of the enclosures sit the AUD regime rules: where an interval
   can leave the model's validity domain (weak inversion, Eq. 1; physical
   S_S band, Eq. 2; positive L_eff; defined log/sqrt arguments; bounded
   exp; non-zero divisors) a diagnostic names the violated equation and
   the offending interval bound.  Because the arithmetic is sound, a
   clean report is a proof: no point of the box can trip the hazard. *)

module I = Interval
module P = Device.Params
module C = Physics.Constants

(* Stable audit rule ids, minted through the registry so a collision with
   any other checker is a startup failure. *)
let rule_weak_inversion =
  Rules.register ~summary:"operating point leaves the weak-inversion domain of Eq. (1)"
    "AUD001"

let rule_small_vds =
  Rules.register ~summary:"V_ds too small for Eq. (1)'s drain-saturation premise" "AUD002"

let rule_div_zero =
  Rules.register ~summary:"division by a zero-straddling interval" "AUD003"

let rule_exp_overflow =
  Rules.register ~summary:"exp argument can overflow to infinity" "AUD004"

let rule_log_domain =
  Rules.register ~summary:"log/sqrt argument can leave the function's domain" "AUD005"

let rule_ss_band =
  Rules.register ~summary:"propagated S_S outside the physical band of Eq. (2)" "AUD006"

let rule_leff =
  Rules.register ~summary:"gate/S-D overlap can consume the gate (L_eff <= 0)" "AUD007"

let rule_mesh =
  Rules.register ~summary:"TCAD mesh under-resolves the channel or junctions" "AUD008"

let rule_vmin_bracket =
  Rules.register ~summary:"V_min search bracket below the Eq. (7)-(8) validity floor"
    "AUD009"

let rule_on_off =
  Rules.register ~summary:"on/off ratio too low for a regenerative VTC (SNM collapse)"
    "AUD010"

(* {2 Parameter boxes} *)

type box = {
  lpoly : I.t;
  tox : I.t;
  nsub : I.t;
  np_halo : I.t;
  xj : I.t option;
  overlap : I.t option;
}

let box_of_physical ?(widen = 0.0) (p : P.physical) =
  let iv v = if Float.equal widen 0.0 then I.point v else I.widen ~rel:widen (I.point v) in
  {
    lpoly = iv p.P.lpoly;
    tox = iv p.P.tox;
    nsub = iv p.P.nsub;
    np_halo = iv p.P.np_halo;
    xj = Option.map iv p.P.xj;
    overlap = Option.map iv p.P.overlap;
  }

(* {2 Diagnostic context} *)

type ctx = { what : string; mutable diags : Diagnostic.t list }

let emit ctx d = ctx.diags <- d :: ctx.diags

let checked_div ctx ~expr num den =
  if I.straddles_zero den then
    emit ctx
      (Diagnostic.error ~rule:rule_div_zero ~location:ctx.what
         (Printf.sprintf "%s: denominator interval %s straddles zero, so the quotient is unbounded"
            expr (I.to_string den)));
  I.div num den

(* exp rounds to +infinity above ln(max_float) ~ 709.78; an interval whose
   upper bound can get there convicts a guaranteed-overflow input region. *)
let exp_overflow = 709.7

let checked_exp ctx ~expr x =
  if I.hi x > exp_overflow then
    emit ctx
      (Diagnostic.error ~rule:rule_exp_overflow ~location:ctx.what
         (Printf.sprintf
            "%s: exponent upper bound %.4g exceeds ln(max_float) ~ 709.8 — exp overflows to infinity"
            expr (I.hi x)));
  I.exp x

let checked_sqrt ctx ~expr x =
  if I.lo x < 0.0 then
    emit ctx
      (Diagnostic.error ~rule:rule_log_domain ~location:ctx.what
         (Printf.sprintf "%s: sqrt argument lower bound %.4g < 0 — result is NaN" expr
            (I.lo x)));
  if I.hi x < 0.0 then I.top else I.sqrt x

(* {2 Device propagation (mirror of Compact.build + Iv_model)} *)

type derived = {
  xj : I.t;
  overlap : I.t;
  leff : I.t;
  neff : I.t;
  phi_f : I.t;
  wdep : I.t;
  cox : I.t;
  ss : I.t;
  m : I.t;
  vth0 : I.t;
  vbi : I.t;
  lt : I.t;
  mu : I.t;
  cg : I.t;
  cg_intrinsic : I.t;
  vth : I.t;
  ion : I.t;
  ioff : I.t;
  on_off : I.t;
}

(* Final relative widening absorbing the concrete pipeline's own float
   rounding (a few ulps); negligible against every rule threshold. *)
let settle = I.widen ~rel:1e-12

(* Floor used to keep propagating past a region already convicted (L_eff or
   N_eff that can reach zero): the diagnostic has fired; the clamped
   interval covers the surviving part of the box. *)
let tiny = 1e-300

let propagate_device ctx ~(cal : P.calibration) ~t ~polarity ~op_vdd (b : box) =
  let vt = C.thermal_voltage t in
  let pt = I.point in
  let xj =
    match b.xj with Some v -> v | None -> I.scale cal.P.xj_fraction b.lpoly
  in
  let overlap =
    match b.overlap with Some v -> v | None -> I.scale cal.P.overlap_fraction b.lpoly
  in
  let leff = I.sub b.lpoly (I.scale 2.0 overlap) in
  if I.lo leff <= 0.0 then
    emit ctx
      (Diagnostic.error ~rule:rule_leff ~location:ctx.what
         ~hint:"reduce the overlap fraction or lengthen L_poly"
         (Printf.sprintf
            "Eq. (2) geometry: L_eff = L_poly - 2 overlap has lower bound %.4g m <= 0 — the overlap consumes the gate (Compact.build rejects such a device)"
            (I.lo leff)));
  let leff = I.clamp_lo tiny leff in
  let halo_fraction =
    I.min_ (pt 0.85)
      (I.scale cal.P.k_halo (checked_div ctx ~expr:"halo fraction k_halo x_j/L_eff (Sec. 3.1)" xj leff))
  in
  let nhalo = I.add b.nsub b.np_halo in
  let neff = I.add b.nsub (I.mul halo_fraction (I.sub nhalo b.nsub)) in
  if I.lo neff <= 0.0 then
    emit ctx
      (Diagnostic.error ~rule:rule_log_domain ~location:ctx.what
         (Printf.sprintf
            "phi_F = v_T ln(N_eff/n_i) (Eq. 2a): N_eff lower bound %.4g m^-3 <= 0 — the Fermi potential is undefined"
            (I.lo neff)));
  let neff = I.clamp_lo 1.0 neff in
  (* Monotone single-variable stages: lift the real library functions. *)
  let phi_f = I.mono_incr (fun n -> Physics.Silicon.fermi_potential ~t n) neff in
  if I.lo phi_f <= 0.0 then
    emit ctx
      (Diagnostic.error ~rule:rule_log_domain ~location:ctx.what
         (Printf.sprintf
            "Eq. (2a): phi_F lower bound %.4g V <= 0 (N_eff can fall below n_i) — Q_dep = sqrt(4 q eps_si N_eff phi_F) is NaN there"
            (I.lo phi_f)));
  let psi = I.scale 2.0 phi_f in
  let wdep =
    if I.hi psi <= 0.0 then pt 0.0
    else
      checked_sqrt ctx ~expr:"W_dep (Eq. 2a)"
        (checked_div ctx ~expr:"W_dep^2 = 2 eps_si psi_s/(q N_eff)"
           (I.scale (2.0 *. C.eps_si /. C.q) (I.clamp_lo 0.0 psi))
           neff)
  in
  let cox = I.mono_decr (fun tox -> Device.Capacitance.oxide_area_capacitance ~tox) b.tox in
  (* S_S, Eq. (2b): body factor x short-channel factor. *)
  let tox_over_wdep = checked_div ctx ~expr:"T_ox/W_dep (Eq. 2b)" b.tox wdep in
  let body = I.add (pt 1.0) (I.scale (cal.P.k_body *. 3.0) tox_over_wdep) in
  let a = cal.P.lambda_xj_exp in
  let lambda =
    I.scale cal.P.k_lambda
      (I.mul (I.pow_const xj a) (I.pow_const (I.mul b.tox wdep) (0.5 *. (1.0 -. a))))
  in
  let sce_exp =
    checked_exp ctx ~expr:"SCE decay exp(-pi L_eff/2 lambda) (Eq. 2b)"
      (I.neg (I.scale (Float.pi /. 2.0) (checked_div ctx ~expr:"L_eff/lambda" leff lambda)))
  in
  let sce = I.add (pt 1.0) (I.mul (I.scale (cal.P.k_sce *. 11.0) tox_over_wdep) sce_exp) in
  let ss = I.add (I.scale (2.3 *. vt) (I.mul body sce)) (pt cal.P.ss_offset) in
  let m = I.scale (1.0 /. (2.3 *. vt)) ss in
  (* V_th0 (Eq. 2a) and the roll-off/DIBL geometry (Eq. 3). *)
  let phi_gate = Physics.Silicon.fermi_potential ~t (C.per_cm3 1e20) in
  let vfb = I.neg (I.add (pt phi_gate) phi_f) in
  let qdep =
    checked_sqrt ctx ~expr:"Q_dep = sqrt(4 q eps_si N_eff phi_F) (Eq. 2a)"
      (I.scale (4.0 *. C.q *. C.eps_si) (I.mul neff phi_f))
  in
  let vth0 = I.add vfb (I.add (I.scale 2.0 phi_f) (checked_div ctx ~expr:"Q_dep/C_ox" qdep cox)) in
  let vbi =
    I.mono_incr (fun n -> Physics.Silicon.builtin_potential ~t n Device.Compact.sd_doping) neff
  in
  let lt = I.sqrt (I.scale (C.eps_si /. C.eps_ox) (I.mul b.tox wdep)) in
  let carrier =
    match polarity with
    | P.Nfet -> Physics.Mobility.Electron
    | P.Pfet -> Physics.Mobility.Hole
  in
  let mu = I.scale cal.P.mu_factor (I.mono_decr (fun n -> Physics.Mobility.channel ~t carrier n) neff) in
  let cg =
    I.add (I.mul cox leff) (I.scale 2.0 (I.add (I.mul cox overlap) (pt cal.P.fringe_cap)))
  in
  let cg_intrinsic = I.mul cox (I.add leff (I.scale 2.0 overlap)) in
  let rolloff_exp =
    checked_exp ctx ~expr:"roll-off exp(-L_eff/2 l_t) (Eq. 3)"
      (I.neg (checked_div ctx ~expr:"L_eff/2 l_t" leff (I.scale 2.0 lt)))
  in
  let vth_at vds =
    let rolloff =
      I.neg
        (I.scale cal.P.k_vth_sce
           (I.mul
              (I.add (I.scale 2.0 (I.sub vbi (I.scale 2.0 phi_f))) (I.scale cal.P.k_dibl vds))
              rolloff_exp))
    in
    I.add vth0 (I.add rolloff (pt cal.P.vth_offset))
  in
  (* EKV drain current, Eq. (1) as implemented by Iv_model. *)
  let ispec =
    I.scale (2.0 *. vt *. vt)
      (checked_div ctx ~expr:"I_spec = 2 m mu C_ox v_T^2/L_eff (Eq. 1)"
         (I.mul (I.mul m mu) cox) leff)
  in
  let big_f v =
    let l = I.softplus (I.scale 0.5 v) in
    I.mul l l
  in
  let ec = I.mono_incr (fun n -> Physics.Mobility.critical_field carrier n) neff in
  let id ~vgs ~vds =
    let vp = checked_div ctx ~expr:"pinch-off (V_gs - V_th)/m (Eq. 1)" (I.sub vgs (vth_at vds)) m in
    let uf = I.scale (1.0 /. vt) vp in
    let ur = I.scale (1.0 /. vt) (I.sub vp vds) in
    let i_norm = I.sub (big_f uf) (big_f ur) in
    let vgt_eff = I.scale (2.0 *. vt) (checked_sqrt ctx ~expr:"sqrt F(u_f)" (big_f uf)) in
    let sat =
      I.inv
        (I.add (pt 1.0)
           (checked_div ctx ~expr:"velocity-saturation factor (Eq. 1)" vgt_eff (I.mul ec leff)))
    in
    I.mul (I.mul ispec i_norm) sat
  in
  let ion = id ~vgs:op_vdd ~vds:op_vdd in
  let ioff = id ~vgs:(pt 0.0) ~vds:op_vdd in
  let on_off = checked_div ctx ~expr:"I_on/I_off" ion ioff in
  {
    xj = settle xj;
    overlap = settle overlap;
    leff = settle leff;
    neff = settle neff;
    phi_f = settle phi_f;
    wdep = settle wdep;
    cox = settle cox;
    ss = settle ss;
    m = settle m;
    vth0 = settle vth0;
    vbi = settle vbi;
    lt = settle lt;
    mu = settle mu;
    cg = settle cg;
    cg_intrinsic = settle cg_intrinsic;
    vth = settle (vth_at op_vdd);
    ion = settle ion;
    ioff = settle ioff;
    on_off = settle on_off;
  }

(* {2 Regime rules on the propagated enclosures} *)

let mv_dec v = v *. 1000.0

let regime_checks ctx ~t ~op_vdd (d : derived) =
  let vt = C.thermal_voltage t in
  (* AUD001 — Eq. (1) is the weak/moderate-inversion EKV current; it is
     only trusted for gate drives below threshold.  Definitely past
     V_th + 2 m v_T (onset of strong inversion) is an error; merely able
     to cross V_th is a warning. *)
  let vth_lo = I.lo d.vth in
  if I.hi op_vdd > vth_lo +. (2.0 *. I.lo d.m *. vt) then
    emit ctx
      (Diagnostic.error ~rule:rule_weak_inversion ~location:ctx.what
         ~hint:"audit at a lower --op-vdd, or treat results as strong-inversion extrapolation"
         (Printf.sprintf
            "Eq. (1) weak-inversion premise: V_dd upper bound %.3f V exceeds V_th(V_dd) lower bound %.3f V by more than 2 m v_T = %.3f V — the device enters strong inversion"
            (I.hi op_vdd) vth_lo
            (2.0 *. I.lo d.m *. vt)))
  else if I.hi op_vdd > vth_lo then
    emit ctx
      (Diagnostic.warning ~rule:rule_weak_inversion ~location:ctx.what
         (Printf.sprintf
            "Eq. (1) weak-inversion premise: V_dd upper bound %.3f V can cross V_th(V_dd) lower bound %.3f V — moderate inversion"
            (I.hi op_vdd) vth_lo));
  (* AUD002 — Eq. (1)'s F(u_f) - F(u_r) difference needs V_ds of a few v_T
     for the drain term to saturate. *)
  if I.lo op_vdd < vt then
    emit ctx
      (Diagnostic.error ~rule:rule_small_vds ~location:ctx.what
         (Printf.sprintf
            "Eq. (1) drain saturation: V_ds lower bound %.3f V < v_T = %.4f V — I_on and I_off are no longer separable"
            (I.lo op_vdd) vt))
  else if I.lo op_vdd < 3.0 *. vt then
    emit ctx
      (Diagnostic.warning ~rule:rule_small_vds ~location:ctx.what
         (Printf.sprintf
            "Eq. (1) drain saturation: V_ds lower bound %.3f V < 3 v_T = %.4f V — the 1 - e^(-V_ds/v_T) term deviates from 1 by > 5%%"
            (I.lo op_vdd) (3.0 *. vt)));
  (* AUD006 — Eq. (2) only calibrates S_S in the physically plausible
     band; 2.3 v_T (~60 mV/dec at 300 K) is the ideal floor. *)
  if I.lo d.ss > 0.150 then
    emit ctx
      (Diagnostic.error ~rule:rule_ss_band ~location:ctx.what
         (Printf.sprintf
            "Eq. (2b): S_S lower bound %.1f mV/dec > 150 mV/dec — short-channel control is lost and the compact model is outside its calibrated band"
            (mv_dec (I.lo d.ss))))
  else begin
    if I.hi d.ss < 2.3 *. vt then
      emit ctx
        (Diagnostic.error ~rule:rule_ss_band ~location:ctx.what
           (Printf.sprintf
              "Eq. (2b): S_S upper bound %.1f mV/dec below the ideal limit 2.3 v_T = %.1f mV/dec — unphysical"
              (mv_dec (I.hi d.ss))
              (mv_dec (2.3 *. vt))));
    if I.lo d.ss > 0.120 then
      emit ctx
        (Diagnostic.warning ~rule:rule_ss_band ~location:ctx.what
           (Printf.sprintf "Eq. (2b): S_S lower bound %.1f mV/dec > 120 mV/dec"
              (mv_dec (I.lo d.ss))))
  end;
  (* AUD010 — a static CMOS gate regenerates only with enough I_on/I_off
     gain (paper Sec. 4: the functionality limit of V_dd scaling). *)
  if I.is_finite d.on_off then begin
    if I.hi d.on_off < 10.0 then
      emit ctx
        (Diagnostic.error ~rule:rule_on_off ~location:ctx.what
           (Printf.sprintf
              "I_on/I_off upper bound %.3g < 10 at V_dd = %s V — the VTC cannot regenerate (SNM collapses)"
              (I.hi d.on_off) (I.to_string op_vdd)))
    else if I.hi d.on_off < 100.0 then
      emit ctx
        (Diagnostic.warning ~rule:rule_on_off ~location:ctx.what
           (Printf.sprintf "I_on/I_off upper bound %.3g < 100 at V_dd = %s V"
              (I.hi d.on_off) (I.to_string op_vdd)))
  end

(* {2 Circuit propagation (mirror of Delay.eq5 + Energy.analytic)} *)

type circuit = {
  cl : I.t;
  tp : I.t;
  t_cycle : I.t;
  e_dyn : I.t;
  e_leak : I.t;
  e_total : I.t;
}

let propagate_circuit ctx ~(cal : P.calibration) ~op_vdd ~(nfet : derived) ~(pfet : derived) =
  let s = Circuits.Inverter.balanced_sizing () in
  let wn = s.Circuits.Inverter.wn and wp = s.Circuits.Inverter.wp in
  let cl =
    I.scale cal.P.load_factor (I.add (I.scale wn nfet.cg) (I.scale wp pfet.cg))
  in
  let drive = I.scale 0.5 (I.add (I.scale wn nfet.ion) (I.scale wp pfet.ion)) in
  let tp =
    checked_div ctx ~expr:"t_p = 0.69 C_L V_dd / I_drive (Eq. 5)"
      (I.scale Analysis.Delay.k_d (I.mul cl op_vdd))
      drive
  in
  let n = float_of_int Analysis.Energy.default_stages in
  let alpha = Analysis.Energy.default_alpha in
  let t_cycle = I.scale n tp in
  let e_dyn = I.scale (alpha *. n) (I.mul cl (I.mul op_vdd op_vdd)) in
  let i_leak = I.scale (n *. 0.5) (I.add (I.scale wn nfet.ioff) (I.scale wp pfet.ioff)) in
  let e_leak = I.mul i_leak (I.mul op_vdd t_cycle) in
  let e_total = I.add e_dyn e_leak in
  {
    cl = settle cl;
    tp = settle tp;
    t_cycle = settle t_cycle;
    e_dyn = settle e_dyn;
    e_leak = settle e_leak;
    e_total = settle e_total;
  }

let bracket_checks ctx ~t =
  (* AUD009 — the Eq. (7)-(8) energy model (and the V_min search built on
     it) assumes subthreshold conduction down to the bracket floor; below
     ~3 v_T the delay model degenerates before the optimizer ever gets
     there. *)
  let vt = C.thermal_voltage t in
  let lo = Analysis.Energy.vmin_bracket_lo in
  if lo < vt then
    emit ctx
      (Diagnostic.error ~rule:rule_vmin_bracket ~location:ctx.what
         (Printf.sprintf
            "Eq. (7)-(8): V_min bracket lower edge %.3f V < v_T = %.4f V — the energy model is evaluated outside any inversion regime"
            lo vt))
  else if lo < 3.0 *. vt then
    emit ctx
      (Diagnostic.warning ~rule:rule_vmin_bracket ~location:ctx.what
         (Printf.sprintf
            "Eq. (7)-(8): V_min bracket lower edge %.3f V < 3 v_T = %.4f V — Eq. (1) loses its drain-saturation premise inside the search bracket"
            lo (3.0 *. vt)))

(* {2 Top-level audits} *)

type report = {
  what : string;
  nfet : derived;
  pfet : derived;
  circuit : circuit;
  diags : Diagnostic.t list;
}

let audit_box ?(what = "device") ~op_vdd box =
  let cal = P.default_calibration and t = C.t_room in
  let ctx_n = { what = what ^ " NFET"; diags = [] } in
  let nfet = propagate_device ctx_n ~cal ~t ~polarity:P.Nfet ~op_vdd box in
  regime_checks ctx_n ~t ~op_vdd nfet;
  let ctx_p = { what = what ^ " PFET"; diags = [] } in
  let pfet = propagate_device ctx_p ~cal ~t ~polarity:P.Pfet ~op_vdd box in
  regime_checks ctx_p ~t ~op_vdd pfet;
  let ctx_c = { what = what ^ " FO1 inverter"; diags = [] } in
  let circuit = propagate_circuit ctx_c ~cal ~op_vdd ~nfet ~pfet in
  bracket_checks ctx_c ~t;
  let diags = List.rev_append ctx_n.diags (List.rev_append ctx_p.diags (List.rev ctx_c.diags)) in
  { what; nfet; pfet; circuit; diags }

let audit_physical ?(widen = 0.0) ?op_vdd ?what (p : P.physical) =
  let op =
    match op_vdd with
    | Some v -> v
    | None -> if p.P.vdd > 0.0 then p.P.vdd else 0.25
  in
  let what =
    match what with
    | Some w -> w
    | None -> Printf.sprintf "%d nm device at V_dd = %.3g V" p.P.node_nm op
  in
  audit_box ~what ~op_vdd:(I.point op) (box_of_physical ~widen p)

(* {2 Mesh-resolution preconditions (AUD008)} *)

let check_mesh ?nx ?ny (desc : Tcad.Structure.description) =
  let what = Printf.sprintf "TCAD structure (L_poly = %.3g nm)" (C.to_nm desc.Tcad.Structure.lpoly) in
  let ctx = { what; diags = [] } in
  let dev = Tcad.Structure.build ?nx ?ny desc in
  let mesh = dev.Tcad.Structure.mesh in
  let xs = mesh.Tcad.Mesh.xs and ys = mesh.Tcad.Mesh.ys in
  let x_g0, x_g1 = Tcad.Structure.gate_span desc in
  let in_gate = Array.to_list xs |> List.filter (fun x -> x >= x_g0 && x <= x_g1) in
  let gate_lines = List.length in_gate in
  (* The drift-diffusion current cut integrates along the channel; fewer
     than ~8 lateral lines under the gate cannot resolve the barrier the
     subthreshold current tunnels over, and the Scharfetter–Gummel fluxes
     lose their exponential fitting advantage. *)
  if gate_lines < 6 then
    emit ctx
      (Diagnostic.error ~rule:rule_mesh ~location:what
         ~hint:"raise nx (or leave Structure.build's default)"
         (Printf.sprintf
            "channel resolution: only %d lateral mesh lines under the gate [%.3g, %.3g] nm — need >= 6 to resolve the source-drain barrier"
            gate_lines (C.to_nm x_g0) (C.to_nm x_g1)))
  else if gate_lines < 12 then
    emit ctx
      (Diagnostic.warning ~rule:rule_mesh ~location:what
         (Printf.sprintf "channel resolution: %d lateral mesh lines under the gate (>= 12 recommended)"
            gate_lines));
  (* Surface spacing against the junction depth: the inversion layer and
     the halo peak both live within x_j of the surface. *)
  let xj = desc.Tcad.Structure.xj in
  let dy_surface = ys.(1) -. ys.(0) in
  if dy_surface > xj /. 3.0 then
    emit ctx
      (Diagnostic.error ~rule:rule_mesh ~location:what
         ~hint:"raise ny (or leave Structure.build's default)"
         (Printf.sprintf
            "surface resolution: first vertical spacing %.3g nm > x_j/3 = %.3g nm — the inversion layer is unresolved"
            (C.to_nm dy_surface)
            (C.to_nm (xj /. 3.0))))
  else if dy_surface > xj /. 6.0 then
    emit ctx
      (Diagnostic.warning ~rule:rule_mesh ~location:what
         (Printf.sprintf "surface resolution: first vertical spacing %.3g nm > x_j/6 = %.3g nm"
            (C.to_nm dy_surface)
            (C.to_nm (xj /. 6.0))));
  let lines_in_xj = Array.to_list ys |> List.filter (fun y -> y <= xj) |> List.length in
  if lines_in_xj < 4 then
    emit ctx
      (Diagnostic.error ~rule:rule_mesh ~location:what
         (Printf.sprintf
            "junction resolution: only %d vertical mesh lines within x_j = %.3g nm — need >= 4 to resolve the S/D junctions and halos"
            lines_in_xj (C.to_nm xj)))
  else if lines_in_xj < 8 then
    emit ctx
      (Diagnostic.warning ~rule:rule_mesh ~location:what
         (Printf.sprintf "junction resolution: %d vertical mesh lines within x_j = %.3g nm (>= 8 recommended)"
            lines_in_xj (C.to_nm xj)));
  List.rev ctx.diags
