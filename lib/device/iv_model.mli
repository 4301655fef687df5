(** All-region drain-current model.

    An EKV-style charge-interpolation model built on the compact device: in
    weak inversion it reduces exactly to the paper's Eq. 1 (exponential in
    (V_gs - V_th)/(m vT), with the (1 - e^{-V_ds/vT}) drain factor), and in
    strong inversion to a velocity-saturation-limited square law.  All
    currents are per metre of device width [A/m]; multiply by the device
    width to get amperes.  Voltages are source-referenced and positive for
    both polarities (the circuit layer handles PFET sign flips). *)

val specific_current : Compact.t -> float
(** I_S = 2 m mu C_ox vT^2 / L_eff [A/m], the EKV normalization current. *)

type coeffs
(** The bias-independent terms of one device: vT, m, the factors of
    {!Compact.vth}, the specific current and E_c L_eff.  Preparing them
    once takes the parameter reads, powers and exponentials out of every
    bias point. *)

val prepare : Compact.t -> coeffs

val eval : coeffs -> vgs:float -> vds:float -> float * float * float
(** [(id, gm, gds)] in one analytic pass: the drain current [A/m], the
    transconductance dI_d/dV_gs and the output conductance dI_d/dV_ds
    [S/m], differentiated through the EKV interpolation, the velocity
    saturation factor and the DIBL slope of V_th.  Raises
    [Invalid_argument] for [vds < 0]. *)

val id : Compact.t -> vgs:float -> vds:float -> float
(** Drain current [A/m], the first component of {!eval} on the prepared
    device.  Monotone in both arguments; 0 at [vds = 0]. *)

val ioff : Compact.t -> vdd:float -> float
(** I_off = id at V_gs = 0, V_ds = [vdd]. *)

val ion : Compact.t -> vdd:float -> float
(** I_on = id at V_gs = V_ds = [vdd] (the paper's definition). *)

val on_off_ratio : Compact.t -> vdd:float -> float

val intrinsic_delay : Compact.t -> vdd:float -> float
(** tau = C_g V_dd / I_on [s] — Table 2's delay metric. *)

val threshold_const_current : Compact.t -> vds:float -> float
(** Constant-current threshold: V_gs where I_d crosses 1e-7 W/L_eff amps
    (the standard 100 nA x W/L criterion), found by bisection.  This is the
    V_th,sat the tables report. *)
