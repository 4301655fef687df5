(** Gate delay — the paper's Sec. 2.3.3.

    Three routes of increasing fidelity:
    - Eq. 5: t_p = k_d C_L V_dd / I_on with I_on from the compact model;
    - Eq. 6: the scaling *factor* C_L K_Vmin S_S / (I_off 10^{K_Vmin ...}),
      whose proportional form C_L S_S / I_off
      ({!Metrics.delay_factor}) predicts delay trends at V_dd = V_min
      without simulating anything;
    - [measured]: the 50 % propagation delay of an interior stage of an
      FO1-loaded inverter chain from the transient engine. *)

val k_d : float
(** The Eq. 4 fitting constant (0.69, the RC step-response value). *)

val eq5 :
  Circuits.Inverter.pair -> sizing:Circuits.Inverter.sizing -> vdd:float -> float
(** Analytic FO1 delay [s], averaging the N and P drive currents. *)

type measured = {
  tp : float;  (** average of rising and falling propagation delays [s] *)
  tp_rise : float;
  tp_fall : float;
}

val measured :
  ?sizing:Circuits.Inverter.sizing ->
  ?steps:int ->
  Circuits.Inverter.pair ->
  vdd:float ->
  measured
(** Transient measurement on stage 3 of a 4-stage chain,
    so the input edge has a realistic slope.  Raises [Failure] if the output
    fails to switch within the simulated window. *)
