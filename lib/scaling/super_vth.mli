(** The super-V_th (performance-driven) scaling strategy — the paper's
    Fig. 1(c) flow.

    At each node, L_poly, T_ox and V_dd come from the roadmap; the dopings
    are then chosen against the leakage budget:

    1. N_sub is set by the *long-channel* device: the smallest substrate
       doping whose long-channel I_off meets the budget (larger doping only
       slows the device, so the leakage constraint is active at the delay
       optimum);
    2. N_p,halo is set by the *short-channel* device: the halo dose that
       pulls the actual device's I_off back to the budget, compensating the
       V_th roll-off exactly as the paper describes
       (-Delta V_th,SCE = Delta V_th,halo).

    I_off is evaluated at the nominal V_dd (worst-case standby leakage). *)

type selected = {
  node : Roadmap.node;
  phys : Device.Params.physical;
  pair : Circuits.Inverter.pair;
}

val select_node : Roadmap.node -> selected
(** Run the Fig. 1(c) loop for one node.  Raises [Failure] if the leakage
    budget is unreachable in the doping search window. *)

val all : unit -> selected list
(** The full 90-to-32 nm trajectory (Table 2's reproduction). *)
