(** Threshold-voltage mismatch and its circuit-level consequences.

    The paper's introduction motivates the study with the observation that
    "timing variability grows dramatically as V_dd reduces, forcing the
    adoption of pessimistic design practices and large timing margins."
    This module quantifies that: random dopant fluctuation (RDF) gives each
    transistor a threshold offset with

      sigma_Vth = k_rdf (q/C_ox') sqrt(N_eff W_dep / (3 W L_eff)),

    (Stolk's RDF expression; k_rdf = 1.8 absorbs sub-band and profile
    details)
    and in weak inversion a threshold shift multiplies the drive current by
    e^{-dVth/(m vT)} — so delay spreads explode as V_dd falls into the
    subthreshold regime while staying negligible at nominal V_dd. *)

val sigma_vth : Device.Compact.t -> width:float -> float
(** RDF threshold sigma [V] for one device of the given width [m]. *)

type distribution = {
  samples : Numerics.Vec.t;  (** sorted *)
  mean : float;
  sigma : float;
  p95 : float;  (** 95th percentile *)
  ratio_95_to_mean : float;  (** the "pessimistic margin" a designer pays *)
}

val summarize : Numerics.Vec.t -> distribution

val chain_delay_distribution :
  ?trials:int ->
  ?stages:int ->
  Circuits.Inverter.pair ->
  vdd:float ->
  distribution
(** Monte Carlo over per-stage device mismatch of a balanced-sizing chain
    (default 400 trials, 30 stages): each stage's N and P devices get
    independent RDF threshold offsets, the stage delays follow Eq. 5 with the
    shifted devices, and the chain delay is their sum.  Seeded with 42, so
    reproducible. *)

val snm_distribution :
  ?trials:int ->
  ?sizing:Circuits.Inverter.sizing ->
  Circuits.Inverter.pair ->
  vdd:float ->
  distribution
(** Monte Carlo inverter SNM under mismatch: each trial shifts the N and P
    thresholds independently and recomputes the analytic Eq. 3 noise
    margins (a failed margin counts as zero).  Seeded with 42. *)

val delay_spread_vs_vdd :
  ?trials:int -> Circuits.Inverter.pair -> vdds:float list -> (float * float) list
(** [(vdd, sigma/mean of chain delay)] over {!chain_delay_distribution}'s
    default chain and seed — the figure-of-merit trace showing variability
    growing as the supply drops (paper Sec. 1).  The mismatch is drawn once
    and every V_dd is evaluated on the same draws, so each point equals
    {!chain_delay_distribution} at that V_dd, bit for bit. *)
