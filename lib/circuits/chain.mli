(** The paper's Fig. 6/Fig. 12 workload: a chain of 30 inverters clocked at
    its own speed with activity factor alpha, used to measure energy per
    cycle and locate the minimum-energy supply V_min. *)

type t = {
  fixture : Inverter.transient_fixture;
  pair : Inverter.pair;
  sizing : Inverter.sizing;
  vdd : float;
  stages : int;
  period : float;  (** input period used for the energy transient [s] *)
}

val build :
  ?sizing:Inverter.sizing ->
  ?stages:int ->
  Inverter.pair ->
  vdd:float ->
  t
(** A [stages]-inverter chain (default 30) driven by a single input pulse.
    The input period is sized to 4 times the
    estimated worst-case chain propagation time at this V_dd, so the chain
    settles fully within one cycle — the operating point of a circuit
    clocked at its natural frequency. *)

val estimated_stage_delay : Inverter.pair -> Inverter.sizing -> vdd:float -> float
(** Analytic per-stage delay estimate (paper Eq. 5 with the FO1 load), used
    to scale transient windows. *)
