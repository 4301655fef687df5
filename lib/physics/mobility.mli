(** Carrier mobility models for bulk silicon MOSFETs.

    Low-field mobility follows the Caughey–Thomas/Arora doping-dependent fit;
    channel mobility adds vertical-field degradation; drain-current models add
    velocity saturation.  Mobilities in m^2/(V s), fields in V/m. *)

type carrier = Electron | Hole

val low_field : carrier -> float -> float
(** [low_field c n] is the doping-dependent low-field bulk mobility for
    carrier [c] at total doping [n] [m^-3]. *)

val effective_field_degradation :
  mu0:float -> e_eff:float -> e_crit:float -> exponent:float -> float
(** [effective_field_degradation ~mu0 ~e_eff ~e_crit ~exponent] is the
    universal-mobility-curve surface mobility
    mu0 / (1 + (E_eff/E_crit)^exponent). *)

val channel : ?t:float -> carrier -> float -> float
(** [channel c n] is the effective channel (surface) mobility at channel
    doping [n], at a vertical effective field of 5e7 V/m (a typical
    subthreshold-bias value) and lattice temperature [t] [K] (default 300;
    phonon scattering scales the bulk value as (T/300)^-1.5).  Surface
    scattering roughly halves the bulk value even at low field. *)

type field = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Per-node values over a mesh (the layout of [Tcad.Field.t]). *)

val channel_into : ?t:float -> carrier -> doping:field -> field -> unit
(** [channel_into c ~doping dst] writes [channel ?t c doping.{k}] into
    [dst.{k}] for every node of [dst], bit for bit, without boxing a float
    per node. *)

val critical_field : carrier -> float -> float
(** [critical_field c n] is the lateral critical field E_c = 2 v_sat / mu
    [V/m] used by velocity-saturated drain-current models, at channel doping
    [n], with the saturation drift velocity v_sat = 1.07e5 m/s for
    electrons and 8.37e4 m/s for holes. *)
