(** Bulk-silicon material models: intrinsic density, Fermi levels,
    depletion electrostatics.  Everything SI (see {!Constants}). *)

val intrinsic_density : float -> float
(** [intrinsic_density t] is n_i [m^-3] at temperature [t] [K]
    (Misiakos–Tsamakis fit; 9.7e15 m^-3 at 300 K). *)

val ni_room : float
(** Intrinsic density at 300 K [m^-3]. *)

val fermi_potential : ?t:float -> float -> float
(** [fermi_potential n] is the bulk Fermi potential phi_F = vT ln(N/n_i) [V]
    for a doping magnitude [n] [m^-3].  Raises [Invalid_argument] on a
    non-positive doping. *)

val depletion_width : psi:float -> doping:float -> float
(** [depletion_width ~psi ~doping] is the depletion-approximation width
    W = sqrt(2 eps_si psi / (q N)) [m] under band bending [psi] [V] into a
    region doped [doping] [m^-3]. *)

val builtin_potential : ?t:float -> float -> float -> float
(** [builtin_potential na nd] is the built-in potential [V] of a step p-n
    junction with acceptor density [na] and donor density [nd] [m^-3]. *)

val bulk_potential_of_net_doping : ?t:float -> float -> float
(** [bulk_potential_of_net_doping d] is the equilibrium electrostatic
    potential [V] (relative to intrinsic) of a charge-neutral region with net
    doping [d] = N_D - N_A [m^-3], from exact charge neutrality:
    psi = vT asinh(d / 2 n_i).  Works for either sign of [d]. *)

type field = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Per-node values over a mesh (the layout of [Tcad.Field.t]). *)

val bulk_potential_into : ?t:float -> net_doping:field -> field -> unit
(** [bulk_potential_into ~net_doping dst] writes
    [bulk_potential_of_net_doping ?t net_doping.{k}] into [dst.{k}] for
    every node of [dst], bit for bit, without boxing a float per node. *)
