(** Multiple threshold offerings.

    The paper (Secs. 2.2 and 3.2) notes that every technology ships several
    V_th variants ("the 65 nm technology described in [14] offers ... 3
    different V_th variants"; "different performance levels can be targeted
    by offering multiple thresholds").  Given one selected device, this
    module derives a low-/standard-/high-V_th family by re-solving the
    doping for scaled off-current budgets, and evaluates the
    delay/leakage/energy trade each variant buys. *)

type flavor = Low_vth | Standard_vth | High_vth

val flavor_name : flavor -> string


type variant = {
  flavor : flavor;
  phys : Device.Params.physical;
  pair : Circuits.Inverter.pair;
  vth_sat : float;  (** [V] at the evaluation drain bias *)
  ioff : float;  (** [A/m] at the evaluation bias *)
  delay_sub : float;  (** FO1 Eq. 5 delay at 250 mV [s] *)
  energy_at_vmin : float;  (** 30-stage chain energy [J] *)
  vmin : float;
}

val for_node :
  strategy:Strategy.kind ->
  Roadmap.node ->
  variant list
(** Family for a roadmap node under either scaling strategy: super-V_th
    devices evaluate I_off at nominal V_dd against the roadmap budget;
    sub-V_th devices at 250 mV against the constant 100 pA/um target. *)
