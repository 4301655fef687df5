(** Copper interconnect parasitics per technology node.

    Wires do not speed up with device scaling — their RC per unit length
    *worsens* as cross-sections shrink (and sub-V_th gates are so slow that
    wires only matter for long global routes; quantifying that crossover is
    the point of this module).  Geometry follows the usual
    half-pitch/aspect-ratio construction; resistivity includes a simple
    surface/grain-boundary size-effect term. *)

type geometry = {
  width : float;  (** [m] *)
  thickness : float;  (** [m] *)
  spacing : float;  (** to the neighbouring wire [m] *)
  ild_thickness : float;  (** dielectric below/above [m] *)
}

val geometry_for_node : int -> geometry
(** Intermediate-level wire at a node label in nm: width = spacing =
    half-pitch = the node dimension, thickness = 1.8 x width (the aspect
    ratio), ILD = width. *)

val resistance_per_length : geometry -> float
(** [ohm/m], from the effective copper resistivity: bulk 17.2 nohm m
    raised by grain-boundary/surface scattering via rho_eff = rho_bulk
    (1 + lambda_mfp/width) with a 39 nm mean free path — the standard
    first-order size effect. *)

val capacitance_per_length : geometry -> float
(** [F/m]: two parallel-plate ground components plus two lateral coupling
    components, in a low-k (k = 3.0) dielectric. *)

val rc_per_length2 : geometry -> float
(** r c product [s/m^2] — the figure of merit that grows as wires shrink. *)
