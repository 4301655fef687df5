(** The proposed sub-V_th scaling strategy (paper Sec. 3).

    At each node T_ox comes from the roadmap, but L_poly is free: for every
    candidate L_poly the doping is re-optimized against the constant
    I_off = 100 pA/um budget (evaluated at the 250 mV sub-V_th operating
    supply), which pins the effective channel doping; the strategy then
    picks the L_poly minimizing the energy factor C_L S_S^2 (Eq. 8) — the
    paper notes the delay factor's minimum is shallow enough that the energy
    optimum costs almost nothing (Fig. 8). *)

val operating_vdd : float
(** The 250 mV sub-V_th evaluation point. *)

type selected = {
  node : Roadmap.node;
  phys : Device.Params.physical;
  pair : Circuits.Inverter.pair;
  lpoly_grid : (float * float * float) list;
      (** (L_poly, energy factor, delay factor) samples — Fig. 8's curves *)
}

val doping_for_lpoly :
  node:Roadmap.node ->
  lpoly:float ->
  unit ->
  Device.Params.physical
(** Doping solved for the I_off budget at the given gate length (long-channel
    split into N_sub, with the halo dose covering the short-channel
    shortfall, mirroring the super-V_th selection). *)

val ss_vs_lpoly :
  node:Roadmap.node ->
  lpolys:float array ->
  fixed_doping:Device.Params.physical option ->
  unit ->
  (float * float) array
(** S_S against L_poly, either re-optimizing the doping per point
    ([fixed_doping = None]) or holding the given profile — Fig. 7's two
    curves. *)

val select_node : Roadmap.node -> selected
(** Optimize L_poly on a grid from 0.8x to 3.5x the roadmap L_poly, refine
    with golden section, and return the chosen device. *)

val all : unit -> selected list
