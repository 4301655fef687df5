(* Rule ids minted through the registry: a collision with any other
   checker is a hard failure at initialization ([Rules.Duplicate_rule]). *)
let rule_nonpositive_param = Rules.register ~summary:"a physical parameter is zero or negative" "dev-nonpositive-param"
let rule_negative_doping = Rules.register ~summary:"a doping density is negative" "dev-negative-doping"
let rule_param_range = Rules.register ~summary:"a parameter is outside its plausible technology range" "dev-param-range"
let rule_halo_geometry = Rules.register ~summary:"halo/overlap geometry is inconsistent with the gate" "dev-halo-geometry"
let rule_nonfinite_id = Rules.register ~summary:"the compact model produces a non-finite drain current" "dev-nonfinite-id"
let rule_nonmonotonic_id = Rules.register ~summary:"drain current is not monotone in the gate drive" "dev-nonmonotonic-id"

(* Device and physics validation.

   Rule ids:
     dev-nonpositive-param   required-positive physical parameter <= 0 / non-finite
     dev-negative-doping     negative doping magnitude
     dev-param-range         T_ox / L_poly / V_dd / doping outside the sane
                             envelope for its node
     dev-halo-geometry       halo pocket placed outside the simulated mesh,
                             or overlap consuming the channel
     dev-nonmonotonic-id     compact-model I_d not monotone in V_gs
     dev-nonfinite-id        compact-model I_d not finite/nonnegative *)

module P = Device.Params

let positive ~rule ~location what v diags =
  if not (Float.is_finite v) || v <= 0.0 then
    Diagnostic.error ~rule ~location
      ~hint:(Printf.sprintf "%s must be a positive finite number" what)
      (Printf.sprintf "%s = %g is not positive" what v)
    :: diags
  else diags

(* Generic envelopes: wide enough for every roadmap node, its sub-Vth
   re-optimization (L_poly up to 3.5x the roadmap value) and the beyond-
   roadmap projections; narrow enough to catch unit mistakes (nm fed as
   metres, cm^-3 fed as m^-3) which are the real failure mode. *)
let check_physical (phys : P.physical) =
  let loc what = Printf.sprintf "%d nm node: %s" phys.P.node_nm what in
  let diags = [] in
  let diags = positive ~rule:rule_nonpositive_param ~location:(loc "L_poly") "L_poly" phys.P.lpoly diags in
  let diags = positive ~rule:rule_nonpositive_param ~location:(loc "T_ox") "T_ox" phys.P.tox diags in
  let diags = positive ~rule:rule_nonpositive_param ~location:(loc "V_dd") "V_dd" phys.P.vdd diags in
  let diags = positive ~rule:rule_nonpositive_param ~location:(loc "N_sub") "N_sub" phys.P.nsub diags in
  let diags =
    if Float.is_finite phys.P.np_halo && phys.P.np_halo >= 0.0 then diags
    else
      Diagnostic.error ~rule:rule_negative_doping ~location:(loc "N_p,halo")
        ~hint:"halo doping is a magnitude added to the body; it cannot be negative"
        (Printf.sprintf "N_p,halo = %g is negative or non-finite" phys.P.np_halo)
      :: diags
  in
  if Diagnostic.has_errors diags then Diagnostic.sort diags
  else begin
    let range what v ~lo ~hi ~unit ~scale diags =
      if v < lo || v > hi then
        Diagnostic.error ~rule:rule_param_range ~location:(loc what)
          ~hint:(Printf.sprintf "expected %g..%g %s; check the unit" (scale *. lo)
                   (scale *. hi) unit)
          (Printf.sprintf "%s = %g %s is outside the physical envelope" what (scale *. v)
             unit)
        :: diags
      else diags
    in
    let diags =
      range "L_poly" phys.P.lpoly ~lo:2e-9 ~hi:2e-6 ~unit:"nm" ~scale:1e9 diags
    in
    let diags = range "T_ox" phys.P.tox ~lo:3e-10 ~hi:2e-8 ~unit:"nm" ~scale:1e9 diags in
    let diags = range "V_dd" phys.P.vdd ~lo:0.05 ~hi:1.8 ~unit:"V" ~scale:1.0 diags in
    let diags =
      range "N_sub" phys.P.nsub ~lo:1e20 ~hi:1e26 ~unit:"cm^-3"
        ~scale:(1.0 /. Physics.Constants.per_cm3 1.0) diags
    in
    let diags =
      if phys.P.tox >= phys.P.lpoly then
        Diagnostic.error ~rule:rule_param_range ~location:(loc "T_ox vs L_poly")
          ~hint:"a gate oxide thicker than the gate is a unit mistake"
          (Printf.sprintf "T_ox (%.3g nm) is not smaller than L_poly (%.3g nm)"
             (1e9 *. phys.P.tox) (1e9 *. phys.P.lpoly))
        :: diags
      else diags
    in
    let diags =
      match phys.P.overlap with
      | Some ov when 2.0 *. ov >= phys.P.lpoly ->
        Diagnostic.error ~rule:rule_halo_geometry ~location:(loc "overlap")
          ~hint:"2 x overlap must leave a positive effective channel"
          (Printf.sprintf "overlap (%.3g nm) consumes the whole %.3g nm gate"
             (1e9 *. ov) (1e9 *. phys.P.lpoly))
        :: diags
      | _ -> diags
    in
    Diagnostic.sort diags
  end

(* TCAD deck validation: the structure description a MEDICI input file
   would carry, checked before [Structure.build] meshes it. *)
let check_description (d : Tcad.Structure.description) =
  let loc what = Printf.sprintf "structure description: %s" what in
  let diags = [] in
  let diags = positive ~rule:rule_nonpositive_param ~location:(loc "L_poly") "L_poly" d.Tcad.Structure.lpoly diags in
  let diags = positive ~rule:rule_nonpositive_param ~location:(loc "T_ox") "T_ox" d.Tcad.Structure.tox diags in
  let diags = positive ~rule:rule_nonpositive_param ~location:(loc "x_j") "x_j" d.Tcad.Structure.xj diags in
  let diags = positive ~rule:rule_nonpositive_param ~location:(loc "temperature") "temperature" d.Tcad.Structure.temperature diags in
  let neg what v diags =
    if not (Float.is_finite v) || v <= 0.0 then
      Diagnostic.error ~rule:rule_negative_doping ~location:(loc what)
        ~hint:"dopings are magnitudes; use the polarity field for the device type"
        (Printf.sprintf "%s = %g is not a positive doping magnitude" what v)
      :: diags
    else diags
  in
  let diags = neg "N_sub" d.Tcad.Structure.nsub diags in
  let diags = neg "N_sd" d.Tcad.Structure.nsd diags in
  let diags = neg "gate doping" d.Tcad.Structure.gate_doping diags in
  let diags =
    if Float.is_finite d.Tcad.Structure.np_halo && d.Tcad.Structure.np_halo >= 0.0 then
      diags
    else
      Diagnostic.error ~rule:rule_negative_doping ~location:(loc "N_p,halo")
        (Printf.sprintf "N_p,halo = %g is negative or non-finite" d.Tcad.Structure.np_halo)
      :: diags
  in
  if Diagnostic.has_errors diags then Diagnostic.sort diags
  else begin
    (* Halo geometry must land inside the simulated box: the mesh depth is
       max(6 x_j, 80 nm) and the lateral extent is tied to the gate, so the
       fractions bound where the pocket centre and spread can sit. *)
    let halo what v ~hi diags =
      if not (Float.is_finite v) || v < 0.0 || v > hi then
        Diagnostic.error ~rule:rule_halo_geometry ~location:(loc what)
          ~hint:(Printf.sprintf "%s is a fraction of x_j; expected 0..%g" what hi)
          (Printf.sprintf "%s = %g places the halo outside the mesh" what v)
        :: diags
      else diags
    in
    let diags = halo "halo_depth_frac" d.Tcad.Structure.halo_depth_frac ~hi:3.0 diags in
    let diags = halo "halo_sigma_frac" d.Tcad.Structure.halo_sigma_frac ~hi:3.0 diags in
    let diags =
      if 2.0 *. d.Tcad.Structure.overlap >= d.Tcad.Structure.lpoly then
        Diagnostic.error ~rule:rule_halo_geometry ~location:(loc "overlap")
          ~hint:"2 x overlap must leave a positive metallurgical channel"
          (Printf.sprintf "overlap (%.3g nm) consumes the whole %.3g nm gate"
             (1e9 *. d.Tcad.Structure.overlap) (1e9 *. d.Tcad.Structure.lpoly))
        :: diags
      else if d.Tcad.Structure.overlap < 0.0 then
        Diagnostic.error ~rule:rule_halo_geometry ~location:(loc "overlap")
          "overlap is negative" :: diags
      else diags
    in
    let diags =
      if d.Tcad.Structure.temperature < 77.0 || d.Tcad.Structure.temperature > 600.0 then
        Diagnostic.warning ~rule:rule_param_range ~location:(loc "temperature")
          ~hint:"the material models are calibrated for 77..600 K"
          (Printf.sprintf "temperature %g K is outside the calibrated range"
             d.Tcad.Structure.temperature)
        :: diags
      else diags
    in
    Diagnostic.sort diags
  end

(* Compact-model sanity: I_d(V_gs) probed at a few points must be finite,
   nonnegative and strictly increasing — the property every downstream
   bisection (V_th extraction, VTC solving) silently depends on. *)
let check_compact (dev : Device.Compact.t) ~vdd =
  let points = 5 in
  let loc vds = Printf.sprintf "compact model I_d at V_ds = %g V" vds in
  let probe vds diags =
    let prev = ref neg_infinity and prev_vgs = ref 0.0 in
    let out = ref diags in
    for i = 0 to points - 1 do
      let vgs = vdd *. float_of_int i /. float_of_int (points - 1) in
      let id = Device.Iv_model.id dev ~vgs ~vds in
      if not (Float.is_finite id) || id < 0.0 then
        out :=
          Diagnostic.error ~rule:rule_nonfinite_id ~location:(loc vds)
            ~hint:"check the doping/geometry inputs of the compact model"
            (Printf.sprintf "I_d(V_gs = %g) = %g is not a finite nonnegative current" vgs
               id)
          :: !out
      else if id <= !prev then
        out :=
          Diagnostic.error ~rule:rule_nonmonotonic_id ~location:(loc vds)
            ~hint:"I_d must grow with V_gs; a sign error upstream is likely"
            (Printf.sprintf "I_d falls from %g to %g between V_gs = %g and %g" !prev id
               !prev_vgs vgs)
          :: !out;
      prev := id;
      prev_vgs := vgs
    done;
    !out
  in
  Diagnostic.sort (probe vdd (probe 0.05 []))
