(* The paper's model chain, written once over a number type.

   Device geometry and doping give S_S (Eq. 2b), V_th (Eq. 2a with the
   Eq. 3 roll-off), the weak-inversion drain current (Eq. 1, in its EKV
   form), the FO1 delay (Eq. 5) and the energy per cycle (Eq. 7-8).
   [Make] writes that chain over any [NUM].  Its float instance is the
   model, [Model]: [Compact.build], [Compact.vth], [Compact.dibl],
   [Analysis.Delay.eq5] and [Analysis.Energy.analytic] call it.  [Model] is
   compiled from this file's text, [Float_num]'s operations followed by
   [Make]'s body (see dune), so its arithmetic is direct float code.  The
   interval instance in [Check.Validity_rules] is the validity audit.

   Each formula is written in the float model's operation order, with
   constant factors folded as floats outside [N]: an instance that rounds
   like floats reproduces the model's bits, and an interval instance
   encloses every operation it performs.

   This module is its two signatures, the float operations and the
   functor, so it has no separate interface: one would restate [NUM] and
   [S] word for word. *)

(* What [NUM.positive] guards. *)
type guard =
  | Gate_length  (* L_eff = L_poly - 2 overlap > 0 *)
  | Doping  (* N_eff > 0, phi_F's log argument *)
  | Fermi_potential  (* phi_F > 0, the depletion charge's sqrt argument *)

(* The operations the chain uses.  [div], [exp], [sqrt] and [positive] are
   hooks: each names the equation it evaluates, so an instance can report
   where its argument leaves the function's domain.  [scale k x] is k x;
   [pow x c] is x^c for x >= 0; [incr]/[decr] lift a non-decreasing /
   non-increasing float function, [incr_decr] one non-decreasing in its
   first argument and non-increasing in its second. *)
module type NUM = sig
  type t

  val const : float -> t
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
  val neg : t -> t
  val scale : float -> t -> t
  val pow : t -> float -> t
  val min : t -> t -> t
  val incr : (float -> float) -> t -> t
  val decr : (float -> float) -> t -> t
  val incr_decr : (float -> float -> float) -> t -> t -> t
  val div : string -> t -> t -> t
  val exp : string -> t -> t
  val sqrt : string -> t -> t
  val positive : guard -> t -> t
end

(* The float operations: the model's own arithmetic.  The hooks compute,
   except that [positive] rejects L_eff <= 0 as [Compact.build] always
   has.  model.awk copies this body and [Make]'s into [Model]; it finds
   both by their first lines and their closing [end]s. *)
module Float_num : NUM with type t = float = struct
  type t = float

  let const x = x
  let add a b = a +. b
  let sub a b = a -. b
  let mul a b = a *. b
  let neg a = -.a
  let scale k x = k *. x
  let pow x c = x ** c
  let min a b = Float.min a b
  let incr f x = f x
  let decr f x = f x
  let incr_decr f x y = f x y
  let div _ x y = x /. y
  let exp _ x = Stdlib.exp x
  let sqrt _ x = Stdlib.sqrt x

  let positive guard x =
    match guard with
    | Gate_length when x <= 0.0 -> invalid_arg "Compact.build: overlap consumes the whole gate"
    | Gate_length | Doping | Fermi_potential -> x
end

(* Every derived quantity of one device, as [Compact.t] holds it. *)
type 'a device = {
  xj : 'a;
  overlap : 'a;
  leff : 'a;
  neff : 'a;
  phi_f : 'a;
  wdep : 'a;
  cox : 'a;
  m : 'a;
  ss : 'a;
  vth0 : 'a;
  vbi : 'a;
  lt : 'a;
  mu : 'a;
  cg : 'a;
  cg_intrinsic : 'a;
}

(* The Eq. 7 energy per cycle of an N-stage chain. *)
type 'a energy = { t_cycle : 'a; e_dyn : 'a; e_leak : 'a; e_total : 'a }

(* Source/drain doping of the V_bi term and the TCAD wells [m^-3]. *)
let sd_doping = Physics.Constants.per_cm3 1.0e20

(* The Eq. 4-5 fitting constant (0.69, the RC step-response value). *)
let k_d = 0.69

module type S = sig
  type num

  (* The derived quantities at lattice temperature [t] [K].  [xj] and
     [overlap] default to the calibration's fractions of [lpoly].  The
     calibration is read through the [Params.read_*] accessors. *)
  val build :
    Params.calibration -> t:float -> Params.polarity -> lpoly:num -> tox:num -> nsub:num ->
    np_halo:num -> xj:num option -> overlap:num option -> num device

  (* V_th(V_ds) = V_th0 + the Eq. 3 roll-off and DIBL + the calibration
     offset. *)
  val vth :
    Params.calibration -> vth0:num -> vbi:num -> phi_f:num -> leff:num -> lt:num -> vds:num -> num

  (* -dV_th/dV_ds [V/V]. *)
  val dibl : Params.calibration -> leff:num -> lt:num -> num

  (* The EKV drain current per width [A/m] at threshold [vth], without
     derivatives: [Iv_model.eval_into]'s current, bit for bit. *)
  val current :
    t:float -> Params.polarity -> m:num -> mu:num -> cox:num -> leff:num -> neff:num ->
    vth:num -> vgs:num -> vds:num -> num

  (* [width_sum ~wn ~wp x_n x_p] is w_n x_n + w_p x_p: an inverter's gate
     capacitance [F] from its devices' C_g [F/m], or its summed current [A]
     from theirs [A/m]. *)
  val width_sum : wn:float -> wp:float -> num -> num -> num

  (* The FO1 load C_L [F]: the load factor times the gate capacitance. *)
  val load_capacitance : Params.calibration -> num -> num

  (* Half the [width_sum] of an N and a P current [A]. *)
  val mean_current : wn:float -> wp:float -> num -> num -> num

  (* [delay ~cl ~vdd i_drive] is Eq. 5's t_p = k_d C_L V_dd / I_drive [s]. *)
  val delay : cl:num -> vdd:num -> num -> num

  (* Eq. 7 over [stages] stages clocked at [stages] t_p: alpha N C_L V_dd^2
     and N I_leak V_dd T_cycle. *)
  val energy : stages:float -> alpha:float -> cl:num -> vdd:num -> tp:num -> i_leak:num -> num energy
end

module Make (N : NUM) : S with type num = N.t = struct
  type num = N.t

  (* The n+-poly gate's Fermi potential, computed once at 300 K. *)
  let gate_doping = Physics.Constants.per_cm3 1e20
  let phi_gate_room = Physics.Silicon.fermi_potential gate_doping

  let phi_gate t =
    if Float.equal t Physics.Constants.t_room then phi_gate_room
    else Physics.Silicon.fermi_potential ~t gate_doping

  let oxide_capacitance tox = Physics.Constants.eps_ox /. tox

  let carrier = function
    | Params.Nfet -> Physics.Mobility.Electron
    | Params.Pfet -> Physics.Mobility.Hole

  (* log1p (exp h) with the EKV kernel's large-h branch. *)
  let softplus h = if h > 40.0 then h else log1p (Stdlib.exp h)

  open N

  let one = const 1.0

  let build cal ~t polarity ~lpoly ~tox ~nsub ~np_halo ~xj ~overlap =
    let vt = Physics.Constants.thermal_voltage t in
    let xj =
      match xj with Some v -> v | None -> scale (Params.read_xj_fraction cal) lpoly
    in
    let overlap =
      match overlap with
      | Some v -> v
      | None -> scale (Params.read_overlap_fraction cal) lpoly
    in
    let leff = positive Gate_length (sub lpoly (scale 2.0 overlap)) in
    (* Channel-averaged halo weight: the pockets occupy a width ~ x_j on
       each side, so their share of the channel falls as the channel
       lengthens — the reason long-channel devices shed their halos (paper
       Sec. 3.1). *)
    let halo_fraction =
      min (const 0.85)
        (div "halo fraction k_halo x_j/L_eff (Sec. 3.1)" (scale (Params.read_k_halo cal) xj) leff)
    in
    let nhalo = add nsub np_halo in
    let neff = positive Doping (add nsub (mul halo_fraction (sub nhalo nsub))) in
    let phi_f =
      positive Fermi_potential (incr (fun n -> Physics.Silicon.fermi_potential ~t n) neff)
    in
    let wdep =
      incr_decr
        (fun psi doping -> Physics.Silicon.depletion_width ~psi ~doping)
        (scale 2.0 phi_f) neff
    in
    let cox = decr oxide_capacitance tox in
    (* S_S, Eq. 2(b): 2.3 v_T times the body factor 1 + k_body 3 T_ox/W_dep
       times the short-channel factor.  The factor's decay length is the
       weighted geometric mean x_j^a (T_ox W_dep)^((1-a)/2), a Brews-style
       dependence through which shallower junctions keep channel control
       in scaled devices. *)
    let body =
      add one (div "T_ox/W_dep (Eq. 2b)" (scale (Params.read_k_body cal *. 3.0) tox) wdep)
    in
    let a = Params.read_lambda_xj_exp cal in
    let lambda =
      mul (scale (Params.read_k_lambda cal) (pow xj a)) (pow (mul tox wdep) (0.5 *. (1.0 -. a)))
    in
    let sce_decay =
      exp "SCE decay exp(-pi L_eff/2 lambda) (Eq. 2b)"
        (div "L_eff/lambda" (scale (-.Float.pi) leff) (scale 2.0 lambda))
    in
    let sce =
      add one
        (mul (div "T_ox/W_dep (Eq. 2b)" (scale (Params.read_k_sce cal *. 11.0) tox) wdep) sce_decay)
    in
    let ss = add (mul (scale (2.3 *. vt) body) sce) (const (Params.read_ss_offset cal)) in
    let m = div "m = S_S/(2.3 v_T)" ss (const (2.3 *. vt)) in
    (* V_th0 of an n+-poly gate over the effective body doping (Eq. 2a). *)
    let vfb = neg (add (const (phi_gate t)) phi_f) in
    let qdep =
      sqrt "Q_dep = sqrt(4 q eps_si N_eff phi_F) (Eq. 2a)"
        (mul
           (scale 2.0 (scale (2.0 *. Physics.Constants.q *. Physics.Constants.eps_si) neff))
           phi_f)
    in
    let vth0 = add (add vfb (scale 2.0 phi_f)) (div "Q_dep/C_ox" qdep cox) in
    let vbi = incr (fun n -> Physics.Silicon.builtin_potential ~t n sd_doping) neff in
    (* The SCE characteristic length of the Eq. 3 roll-off. *)
    let lt =
      sqrt "l_t = sqrt(eps_si T_ox W_dep/eps_ox) (Eq. 3)"
        (div "eps_si T_ox W_dep/eps_ox" (mul (scale Physics.Constants.eps_si tox) wdep)
           (const Physics.Constants.eps_ox))
    in
    let mu =
      scale (Params.read_mu_factor cal)
        (decr (fun n -> Physics.Mobility.channel ~t (carrier polarity) n) neff)
    in
    (* The loaded C_g: channel, two overlaps and two fringes; the intrinsic
       one is the paper's tau = C_g V_dd / I_on capacitance. *)
    let cg =
      add (mul cox leff)
        (scale 2.0 (add (mul cox overlap) (const (Params.read_fringe_cap cal))))
    in
    let cg_intrinsic = mul cox (add leff (scale 2.0 overlap)) in
    { xj; overlap; leff; neff; phi_f; wdep; cox; m; ss; vth0; vbi; lt; mu; cg; cg_intrinsic }

  let decay ~leff ~lt =
    exp "roll-off exp(-L_eff/2 l_t) (Eq. 3)" (div "L_eff/2 l_t" (neg leff) (scale 2.0 lt))

  (* The quasi-2-D charge-sharing roll-off
     -k_vth_sce (2 (V_bi - 2 phi_F) + k_dibl V_ds) exp(-L_eff/2 l_t). *)
  let vth cal ~vth0 ~vbi ~phi_f ~leff ~lt ~vds =
    let rolloff =
      mul
        (scale (-.Params.read_k_vth_sce cal)
           (add (scale 2.0 (sub vbi (scale 2.0 phi_f))) (scale (Params.read_k_dibl cal) vds)))
        (decay ~leff ~lt)
    in
    add (add vth0 rolloff) (const (Params.read_vth_offset cal))

  let dibl cal ~leff ~lt =
    scale (Params.read_k_vth_sce cal *. Params.read_k_dibl cal) (decay ~leff ~lt)

  (* EKV interpolation F(u) = softplus(u/2)^2 with u normalized to v_T, and
     velocity saturation dividing by 1 + 2 v_T sqrt(F(u_f)) / (E_c L_eff).
     In weak inversion this is Eq. 1. *)
  let current ~t polarity ~m ~mu ~cox ~leff ~neff ~vth ~vgs ~vds =
    let vt = Physics.Constants.thermal_voltage t in
    let i_spec =
      div "I_spec = 2 m mu C_ox v_T^2/L_eff (Eq. 1)"
        (scale vt (scale vt (mul (mul (scale 2.0 m) mu) cox)))
        leff
    in
    let ec_leff = mul (incr (Physics.Mobility.critical_field (carrier polarity)) neff) leff in
    let vp = div "pinch-off (V_gs - V_th)/m (Eq. 1)" (sub vgs vth) m in
    let half_u v = scale 0.5 (div "u = V/v_T (Eq. 1)" v (const vt)) in
    let lf = incr softplus (half_u vp) and lr = incr softplus (half_u (sub vp vds)) in
    let f_f = mul lf lf in
    let sat =
      div "velocity saturation 1/(1 + ...)" one
        (add one
           (div "velocity-saturation factor (Eq. 1)"
              (scale (2.0 *. vt) (sqrt "sqrt F(u_f)" f_f))
              ec_leff))
    in
    mul (mul i_spec (sub f_f (mul lr lr))) sat

  let width_sum ~wn ~wp x_n x_p = add (scale wn x_n) (scale wp x_p)
  let load_capacitance cal c_gate = scale (Params.read_load_factor cal) c_gate
  let mean_current ~wn ~wp i_n i_p = scale 0.5 (width_sum ~wn ~wp i_n i_p)

  let delay ~cl ~vdd i_drive =
    div "t_p = 0.69 C_L V_dd / I_drive (Eq. 5)" (mul (scale k_d cl) vdd) i_drive

  let energy ~stages ~alpha ~cl ~vdd ~tp ~i_leak =
    let t_cycle = scale stages tp in
    let e_dyn = mul (mul (scale (alpha *. stages) cl) vdd) vdd in
    let e_leak = mul (mul (scale stages i_leak) vdd) t_cycle in
    { t_cycle; e_dyn; e_leak; e_total = add e_dyn e_leak }
end
