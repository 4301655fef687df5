(** The paper's scaling metric factors (Sec. 2.3.3–2.3.4, Table 3):

    - energy factor:  C_L S_S^2        (Eq. 8 — both E_dyn and E_leak)
    - delay factor:   C_L S_S / I_off  (Eq. 6)
    - delay factor at constant I_off:  C_L S_S

    These are the objective functions of the sub-V_th scaling strategy. *)

val energy_factor :
  Circuits.Inverter.pair -> sizing:Circuits.Inverter.sizing -> float
(** C_L S_S^2 [F V^2/dec^2]. *)

val delay_factor :
  ?ioff_vdd:float -> Circuits.Inverter.pair -> sizing:Circuits.Inverter.sizing -> float
(** C_L S_S / I_off, with I_off the N/P average at supply [ioff_vdd]
    (default 250 mV, the paper's sub-V_th operating point). *)
