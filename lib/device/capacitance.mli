(** Gate/load capacitance model (per metre of device width).

    C_g = C_ox' L_eff + 2 (C_ox' L_ov + C_fringe), i.e. intrinsic channel
    capacitance plus two overlap/fringe terms — the paper's "gate
    capacitance including gate/drain-source overlap" used in its
    tau = C_g V_dd / I_on metric. *)

val oxide_area_capacitance : tox:float -> float
(** C_ox' = eps_ox / T_ox [F/m^2]. *)

val gate :
  ?fringe:float -> tox:float -> leff:float -> overlap:float -> unit -> float
(** Gate capacitance per width [F/m]; [fringe] is per side (default 0.25 nF/m
    = 0.25 fF/um). *)
