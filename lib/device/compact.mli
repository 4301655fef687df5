(** The assembled compact device: every derived model quantity computed once
    from the physical parameters and calibration constants.  This record is
    what the circuit simulator, the analysis layer, and the scaling
    optimizers consume. *)

type t = {
  phys : Params.physical;
  cal : Params.calibration;
  polarity : Params.polarity;
  leff : float;  (** effective channel length [m] *)
  xj : float;  (** junction depth [m] *)
  overlap : float;  (** gate/S-D overlap [m] *)
  neff : float;  (** effective (halo-weighted) channel doping [m^-3] *)
  phi_f : float;  (** bulk Fermi potential at N_eff [V] *)
  wdep : float;  (** depletion width at 2 phi_F [m] *)
  cox : float;  (** oxide capacitance per area [F/m^2] *)
  m : float;  (** subthreshold slope factor, consistent with [ss] *)
  ss : float;  (** inverse subthreshold slope [V/dec] (Eq. 2b) *)
  vth0 : float;  (** long-channel threshold [V] *)
  vbi : float;  (** S/D junction built-in potential [V] *)
  lt : float;  (** SCE characteristic length [m] *)
  mu : float;  (** effective channel mobility [m^2/Vs] *)
  cg : float;  (** loaded gate capacitance per width, incl. fringe [F/m] *)
  cg_intrinsic : float;
      (** channel + overlap gate capacitance per width [F/m] — the C_g of
          the paper's tau = C_g V_dd / I_on metric *)
  temperature : float;
}

val sd_doping : float
(** Source/drain doping used for V_bi and the TCAD wells [m^-3] — exposed
    so the validity auditor mirrors V_bi with the same constant. *)

val key : t -> string
(** Canonical content key over every field of the record (floats as exact
    IEEE-754 bit patterns), for memoizing solves on a device. *)

val nfet : ?cal:Params.calibration -> ?t:float -> Params.physical -> t
(** [t] is the lattice temperature [K] (default 300) — it scales the thermal
    voltage (and hence S_S), the intrinsic density (V_th falls with T) and
    the phonon-limited mobility. *)

val pfet : ?cal:Params.calibration -> ?t:float -> Params.physical -> t
(** The paper derives PFETs with the same methodology and near-identical
    optimal geometry; we model the PFET as the NFET's mirror with hole
    mobility.  All voltages in the PFET record are magnitudes
    (source-referenced |V_gs|, |V_ds|). *)

val vth : t -> vds:float -> float
(** V_th(V_ds) = V_th0 + Delta V_th,SCE(V_ds) + calibration offset; the halo
    roll-up is inside V_th0 via N_eff. *)

val with_vth_shift : t -> float -> t
(** [with_vth_shift dev dv] is [dev] with its threshold rigidly shifted by
    [dv] volts — the per-instance handle Monte Carlo mismatch studies use. *)

val dibl : t -> float
(** -dV_th/dV_ds [V/V]. *)

val mobility_ratio : float
(** mu_n / mu_p sizing ratio used for balanced inverters. *)

val to_tcad_description : t -> Tcad.Structure.description
(** Map the compact device onto the 2-D simulator's structure description,
    for calibration and validation runs. *)
