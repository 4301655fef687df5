(** Inverter voltage transfer characteristics, by two routes:

    - [analytic]: the paper's Eq. 3(b) — V_in as an explicit function of
      V_out from equating the NFET and PFET weak-inversion currents (Eq. 1).
      Valid in the sub-V_th regime.
    - [spice]: a DC sweep of the full nonlinear circuit, valid at any V_dd.

    Both return curves sampled as (vin, vout) arrays with vin increasing. *)

type curve = { vin : Numerics.Vec.t; vout : Numerics.Vec.t }

val analytic :
  ?points:int -> Circuits.Inverter.pair -> sizing:Circuits.Inverter.sizing ->
  vdd:float -> curve
(** Eq. 3(b), using each device's I_o (current at V_gs = V_th), m and V_th,
    with the device widths folded into the I_o ratio: {!apply} of a fresh
    {!stage}, unshifted. *)

type stage
(** The part of Eq. 3(b) that a threshold shift leaves alone, for one pair,
    sizing, V_dd and sample count: both devices' prepared coefficients, the
    V_in grid, and the two rail terms of the dense V_out sweep,
    1 - e^{(V_out - V_dd)/vT} and 1 - e^{-V_out/vT}.  Immutable once built,
    so one stage serves any number of curves, from any domain. *)

val stage :
  ?points:int -> Circuits.Inverter.pair -> sizing:Circuits.Inverter.sizing ->
  vdd:float -> stage

val apply : stage -> dvn:float -> dvp:float -> curve
(** [apply st ~dvn ~dvp] is the analytic curve of the stage's pair with
    the NFET's threshold shifted by [dvn] and the PFET's by [dvp], bit for
    bit as {!analytic} of the pair under {!Device.Compact.with_vth_shift},
    without building either device.  Every curve of one stage shares the
    stage's [vin] array: read it, do not write it. *)

val spice :
  ?points:int -> Circuits.Inverter.pair -> sizing:Circuits.Inverter.sizing ->
  vdd:float -> curve

val switching_threshold : curve -> float
(** V_M where V_out = V_in. *)
