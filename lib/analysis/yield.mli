(** SRAM yield under threshold mismatch — the quantitative version of the
    paper's Sec. 2.3.2 worry (and of ref [16]'s sub-200 mV SRAM): a cell
    fails when mismatch erases its static noise margin, so array yield sets
    the minimum operating voltage.

    Failure probability comes from a Gaussian fit of the Monte Carlo SNM
    distribution (the standard importance approximation); array yield is
    (1 - p_cell)^bits. *)

type assessment = {
  vdd : float;
  snm_mean : float;
  snm_sigma : float;
  p_cell_fail : float;
  yield_1kb : float;
  yield_1mb : float;
}

val assess : ?trials:int -> Circuits.Inverter.pair -> vdd:float -> assessment
(** Monte Carlo SNM (default 400 trials) of a cell built from
    near-minimum-width devices (0.15 um N / 0.2 um P), where mismatch
    bites hardest.  [yield_1kb]/[yield_1mb] are (1 - p_cell_fail)^bits
    for 1024 and 1024^2 cells. *)

val min_vdd_for_yield :
  ?trials:int -> Circuits.Inverter.pair -> bits:int -> target:float -> float
(** Smallest supply (within 0.10 .. 0.60 V) at which an
    array of [bits] cells yields at least [target] (e.g. 0.9), found by
    bisection on the Gaussian-fit yield (monotone in V_dd); each V_dd is
    assessed once, the range checks' ends included.  Raises
    [Failure] if even 0.60 V cannot reach the target. *)
