(** Static noise margins.

    For the inverter figures (Figs. 4, 10) the paper defines SNM "at the
    points where the gain in the voltage transfer characteristic equals
    negative one": NM_L = V_IL - V_OL and NM_H = V_OH - V_IH, with SNM their
    minimum.  For SRAM butterfly plots the standard maximum-embedded-square
    measure is provided. *)

type margins = {
  vil : float;  (** input low: first gain = -1 point *)
  vih : float;  (** input high: second gain = -1 point *)
  vol : float;  (** output low: V_out at V_in = V_IH *)
  voh : float;  (** output high: V_out at V_in = V_IL *)
  nml : float;
  nmh : float;
  snm : float;
}

val inverter :
  ?engine:[ `Analytic | `Spice ] ->
  Circuits.Inverter.pair -> sizing:Circuits.Inverter.sizing -> vdd:float -> margins
(** SNM of a single inverter (default engine [`Analytic], matching the
    paper's Eq. 3 treatment).  Each call bumps the [analysis.snm.evals]
    counter. *)

val stage :
  Circuits.Inverter.pair -> sizing:Circuits.Inverter.sizing -> vdd:float -> Vtc.stage
(** The analytic engine's VTC stage at [vdd], at {!inverter}'s sample
    count: build it once per V_dd and take any number of {!shifted}
    margins from it. *)

val shifted : Vtc.stage -> dvn:float -> dvp:float -> margins
(** The analytic margins of the stage's pair with the NFET's threshold
    shifted by [dvn] and the PFET's by [dvp]: bit for bit
    [inverter ~engine:`Analytic] of the pair under
    {!Device.Compact.with_vth_shift}, insufficient-gain [Failure]s
    included, without building either device.  Bumps the
    [analysis.snm.evals] counter as {!inverter} does. *)

val butterfly_snm : vin:Numerics.Vec.t -> v1:Numerics.Vec.t -> v2:Numerics.Vec.t -> float
(** Maximum-square SNM of a butterfly plot formed by curve 1 (vin -> v1) and
    the mirror of curve 2 (v2 -> vin): the side of the largest square that
    fits in the smaller lobe. *)
