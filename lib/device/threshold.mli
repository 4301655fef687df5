(** Threshold-voltage model: the three components of the paper's Sec. 2.2 —
    intrinsic long-channel V_th0, short-channel/DIBL roll-off, and halo
    roll-up (the roll-up is carried by the halo's contribution to the
    effective channel doping used in V_th0). *)

val long_channel : ?t:float -> neff:float -> cox:float -> unit -> float
(** V_th0 = V_fb + 2 phi_F + sqrt(2 q eps_Si N_eff 2 phi_F)/C_ox for an
    n+-poly gate (1e20 cm^-3) over a p-body of effective doping [neff]. *)

val characteristic_length : tox:float -> wdep:float -> float
(** The SCE decay length l_t = sqrt(eps_Si T_ox W_dep / eps_Ox). *)

val rolloff :
  ?k_vth_sce:float -> ?k_dibl:float -> vbi:float -> surface_potential:float ->
  vds:float -> leff:float -> lt:float -> unit -> float
(** Delta V_th,SCE (negative): the quasi-2-D charge-sharing roll-off
    -(k_vth_sce) (2 (V_bi - phi_s) + k_dibl V_ds) exp(-L_eff / (2 l_t)). *)
