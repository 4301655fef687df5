(* The validity half of [subscale audit]: the paper's model chain
   ({!Device.Eqs}, Eq. 1-8) run over the {!Interval} domain.

   Every physical parameter becomes an interval, every derived quantity a
   guaranteed enclosure of all concrete values the parameter box can
   produce.  The chain is the model's own code: {!Device.Eqs.Make} applied
   to an interval instance of its number signature, so audited and
   executed formulas cannot drift apart.  The instance's hooks are where
   an enclosure can leave an equation's domain (a zero-straddling divisor,
   an exp overflow, a negative sqrt or log argument, L_eff <= 0); each
   reports the equation it evaluates.

   On top of the enclosures sit the AUD regime rules: the weak-inversion
   premise of Eq. 1, the physical S_S band of Eq. 2, the on/off ratio of a
   regenerative VTC and the V_min bracket of Eq. 7-8.  Because the
   arithmetic is sound, a clean report is a proof: no point of the box can
   trip the hazard. *)

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

(* exp rounds to +infinity above ln(max_float) ~ 709.78; an interval whose
   upper bound can get there convicts a guaranteed-overflow input region. *)
let exp_overflow = 709.7

(* Floor used to keep propagating past a region already convicted (L_eff or
   N_eff that can reach zero): the diagnostic has fired; the clamped
   interval covers the surviving part of the box. *)
let tiny = 1e-300

(* {2 The interval instance of the model chain} *)

module Num (X : sig
  val ctx : ctx
end) : Device.Eqs.NUM with type t = I.t = struct
  type t = I.t

  let error ?hint rule msg =
    emit X.ctx (Diagnostic.error ?hint ~rule ~location:X.ctx.what msg)

  let const = I.point
  let add = I.add
  let sub = I.sub
  let mul = I.mul
  let neg = I.neg
  let scale = I.scale
  let pow = I.pow_const
  let min = I.min_
  let incr = I.mono_incr
  let decr = I.mono_decr
  let incr_decr = I.mono_incr_decr

  let div expr num den =
    if I.straddles_zero den then
      error rule_div_zero
        (Printf.sprintf "%s: denominator interval %s straddles zero, so the quotient is unbounded"
           expr (I.to_string den));
    I.div num den

  let exp expr x =
    if I.hi x > exp_overflow then
      error rule_exp_overflow
        (Printf.sprintf
           "%s: exponent upper bound %.4g exceeds ln(max_float) ~ 709.8 — exp overflows to infinity"
           expr (I.hi x));
    I.exp x

  let sqrt expr x =
    if I.lo x < 0.0 then
      error rule_log_domain
        (Printf.sprintf "%s: sqrt argument lower bound %.4g < 0 — result is NaN" expr (I.lo x));
    if I.hi x < 0.0 then I.top else I.sqrt x

  let positive guard x =
    let lo = I.lo x in
    match guard with
    | Device.Eqs.Gate_length ->
      if lo <= 0.0 then
        error rule_leff ~hint:"reduce the overlap fraction or lengthen L_poly"
          (Printf.sprintf
             "Eq. (2) geometry: L_eff = L_poly - 2 overlap has lower bound %.4g m <= 0 — the overlap consumes the gate (Compact.build rejects such a device)"
             lo);
      I.clamp_lo tiny x
    | Device.Eqs.Doping ->
      if lo <= 0.0 then
        error rule_log_domain
          (Printf.sprintf
             "phi_F = v_T ln(N_eff/n_i) (Eq. 2a): N_eff lower bound %.4g m^-3 <= 0 — the Fermi potential is undefined"
             lo);
      I.clamp_lo 1.0 x
    | Device.Eqs.Fermi_potential ->
      if lo <= 0.0 then
        error rule_log_domain
          (Printf.sprintf
             "Eq. (2a): phi_F lower bound %.4g V <= 0 (N_eff can fall below n_i) — Q_dep = sqrt(4 q eps_si N_eff phi_F) is NaN there"
             lo);
      x
end

(* {2 Device propagation} *)

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

let propagate_device ctx ~(cal : P.calibration) ~t ~polarity ~op_vdd (b : box) =
  let module N = Num (struct
    let ctx = ctx
  end) in
  let module E = Device.Eqs.Make (N) in
  let d =
    E.build cal ~t polarity ~lpoly:b.lpoly ~tox:b.tox ~nsub:b.nsub ~np_halo:b.np_halo ~xj:b.xj
      ~overlap:b.overlap
  in
  let open Device.Eqs in
  let vth = E.vth cal ~vth0:d.vth0 ~vbi:d.vbi ~phi_f:d.phi_f ~leff:d.leff ~lt:d.lt ~vds:op_vdd in
  let id vgs =
    E.current ~t polarity ~m:d.m ~mu:d.mu ~cox:d.cox ~leff:d.leff ~neff:d.neff ~vth ~vgs
      ~vds:op_vdd
  in
  let ion = id op_vdd in
  let ioff = id (I.point 0.0) in
  let s = settle in
  { xj = s d.xj; overlap = s d.overlap; leff = s d.leff; neff = s d.neff; phi_f = s d.phi_f;
    wdep = s d.wdep; cox = s d.cox; ss = s d.ss; m = s d.m; vth0 = s d.vth0; vbi = s d.vbi;
    lt = s d.lt; mu = s d.mu; cg = s d.cg; cg_intrinsic = s d.cg_intrinsic; vth = s vth;
    ion = s ion; ioff = s ioff; on_off = s (N.div "I_on/I_off" ion ioff) }

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

(* {2 Circuit propagation} *)

type circuit = {
  cl : I.t;
  tp : I.t;
  t_cycle : I.t;
  e_dyn : I.t;
  e_leak : I.t;
  e_total : I.t;
}

let propagate_circuit ctx ~(cal : P.calibration) ~op_vdd ~(nfet : derived) ~(pfet : derived) =
  let module E = Device.Eqs.Make (Num (struct
    let ctx = ctx
  end)) in
  let s = Circuits.Inverter.balanced_sizing () in
  let wn = s.Circuits.Inverter.wn and wp = s.Circuits.Inverter.wp in
  let cl = E.load_capacitance cal (E.width_sum ~wn ~wp nfet.cg pfet.cg) in
  let tp = E.delay ~cl ~vdd:op_vdd (E.mean_current ~wn ~wp nfet.ion pfet.ion) in
  let e =
    E.energy
      ~stages:(float_of_int Analysis.Energy.default_stages)
      ~alpha:Analysis.Energy.default_alpha ~cl ~vdd:op_vdd ~tp
      ~i_leak:(E.mean_current ~wn ~wp nfet.ioff pfet.ioff)
  in
  let open Device.Eqs in
  { cl = settle cl; tp = settle tp; t_cycle = settle e.t_cycle; e_dyn = settle e.e_dyn;
    e_leak = settle e.e_leak; e_total = settle e.e_total }

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
