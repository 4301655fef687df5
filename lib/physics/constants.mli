(** Fundamental physical constants and unit conversions.

    All quantities in this code base are SI unless a name says otherwise:
    lengths in metres, potentials in volts, currents in amperes, charge in
    coulombs, capacitance in farads, doping in m^-3.  Helpers convert the
    units device engineers actually quote (nm, cm^-3, pA/um). *)

val q : float
(** Elementary charge [C]. *)

val eps0 : float
(** Vacuum permittivity [F/m]. *)

val eps_si : float
(** Permittivity of silicon [F/m] (11.7 eps0). *)

val eps_ox : float
(** Permittivity of SiO2 [F/m] (3.9 eps0). *)

val t_room : float
(** Reference temperature [K] used throughout the paper (300 K). *)

val thermal_voltage : float -> float
(** [thermal_voltage t] is kT/q [V] at temperature [t] in kelvin. *)

val vt_room : float
(** Thermal voltage at 300 K, ~25.85 mV. *)

val nm : float -> float
(** [nm x] converts nanometres to metres. *)

val um : float -> float
(** [um x] converts micrometres to metres. *)

val to_nm : float -> float
(** [to_nm x] converts metres to nanometres. *)

val per_cm3 : float -> float
(** [per_cm3 n] converts a doping density from cm^-3 to m^-3. *)

val to_per_cm3 : float -> float
(** [to_per_cm3 n] converts a doping density from m^-3 to cm^-3. *)

val pa_per_um : float -> float
(** [pa_per_um i] converts a per-width current from pA/um to A/m. *)

val to_pa_per_um : float -> float
(** [to_pa_per_um i] converts a per-width current from A/m to pA/um. *)
