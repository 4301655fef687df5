(** The paper's subthreshold device equations.

    Eq. 1 — weak-inversion drain current; Eq. 2 — inverse subthreshold slope
    S_S = 2.3 vT m with the short-channel form 2(b):

    S_S = 2.3 vT (1 + k_body 3 T_ox/W_dep)
               (1 + k_sce 11 T_ox/W_dep exp(-pi L_eff / (2 k_lambda (W_dep + 3 T_ox))))

    The k_* constants (all 1 in the textbook form) absorb the difference
    between the idealized expression and 2-D behaviour; they are set once in
    {!Params.default_calibration}. *)

val slope_factor :
  ?k_body:float -> tox:float -> wdep:float -> unit -> float
(** Long-channel subthreshold slope factor m = 1 + k_body 3 T_ox / W_dep
    (the capacitive divider C_dep/C_ox written in the paper's form). *)

val short_channel_factor :
  ?k_sce:float -> ?k_lambda:float -> ?xj_exp:float -> ?xj:float -> tox:float -> wdep:float ->
  leff:float -> unit -> float
(** The second parenthesis of Eq. 2(b): roll-up of S_S as L_eff shrinks
    relative to T_ox and W_dep.  When a junction depth [xj] is supplied the
    decay length uses the Brews-inspired x_j^a (T_ox W_dep)^((1-a)/2) scale
    (a = [xj_exp], default 0.5) instead of Eq. 2(b)'s (W_dep + 3 T_ox) — the
    form the compact model is calibrated with (see Compact). *)

val inverse_slope :
  ?k_body:float -> ?k_sce:float -> ?k_lambda:float -> ?ss_offset:float ->
  ?t:float -> ?xj_exp:float -> ?xj:float -> tox:float -> wdep:float -> leff:float ->
  unit -> float
(** Full Eq. 2(b) in V/decade (plus the calibration offset). *)

val current : i0:float -> m:float -> vth:float -> vgs:float -> vds:float -> float
(** Eq. 1 at room temperature with the prefactor collapsed into [i0] (the
    current at V_gs = V_th, V_ds >> vT):
    I = i0 exp((V_gs - V_th)/(m vT)) (1 - exp(-V_ds/vT)). *)

val i0_of_spec : mu:float -> cox:float -> m:float -> leff:float -> float
(** The Eq. 1 prefactor per metre of width at room temperature:
    i0 = (1/L_eff) mu (m-1) C_ox vT^2 ... written via the depletion
    capacitance C_d = (m - 1) C_ox the paper uses. *)
