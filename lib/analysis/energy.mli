(** Energy per cycle and the minimum-energy supply V_min — the paper's
    Sec. 2.3.4 and the workload of Figs. 6 and 12: a chain of [stages]
    inverters with activity factor alpha, clocked at its own propagation
    time.

    Analytic route (Eq. 7):
      E_dyn  = alpha N C_L V_dd^2
      E_leak = N I_off,avg V_dd T_cycle,   T_cycle = N t_p
    Measured route: transient supply-energy integration over one input
    cycle of the real 30-stage chain. *)

val default_stages : int
(** The paper's Fig. 6 chain length (30). *)

val default_alpha : float
(** The paper's activity factor (0.1). *)

val vmin_bracket_lo : float
type breakdown = {
  vdd : float;
  e_dyn : float;  (** [J] per cycle *)
  e_leak : float;  (** [J] per cycle *)
  e_total : float;
  t_cycle : float;  (** [s] *)
}

val analytic :
  ?sizing:Circuits.Inverter.sizing ->
  ?stages:int ->
  ?alpha:float ->
  Circuits.Inverter.pair ->
  vdd:float ->
  breakdown
(** Defaults: 30 stages, alpha = 0.1 (the paper's Fig. 6 settings). *)

val measured :
  ?stages:int ->
  ?steps:int ->
  Circuits.Inverter.pair ->
  vdd:float ->
  float
(** Transient energy per cycle [J] of the balanced-sizing chain: supply
    energy integrated over one full input period, scaled by alpha = 0.1
    against the chain's single switching event (one transition per 10
    cycles; the leakage of the quiet cycles is added analytically from the
    measured static current). *)

type vmin_result = { vmin : float; e_min : float; curve : (float * breakdown) list }

val vmin : ?sizing:Circuits.Inverter.sizing -> Circuits.Inverter.pair -> vmin_result
(** Locate the energy-optimal supply of the default chain (see {!analytic})
    by golden-section refinement of the analytic model over 80 mV .. 0.6 V,
    returning the sampled curve for plotting. *)

