(** Carrier continuity in Slotboom form, for either carrier.

    Electrons: with u = n / (n_i e^{psi/vT}) (so phi_n = -vT ln u),
    steady-state continuity becomes the symmetric positive-definite problem
    div (mu_n vT n_i e^{psi/vT} grad u) = R.  Holes are the exact mirror:
    w = p / (n_i e^{-psi/vT}) (phi_p = +vT ln w) with coefficient
    e^{-psi/vT} and source -R.  Both cases produce the same M-matrix form.
    The edge coefficients use the exact exponential average of e^{+-psi/vT}
    along each edge — algebraically the Scharfetter–Gummel flux.

    Recombination R is Shockley–Read–Hall,
    R = (n p - n_i^2) / (tau_p (n + n_i) + tau_n (p + n_i)),
    linearized in the solved variable with the lagged densities of the
    previous Gummel iterate (the standard decoupled treatment). *)

type carrier = Electrons | Holes

type srh = { tau_n : float; tau_p : float }

val default_srh : srh
(** 0.1 us lifetimes — a clean-silicon value. *)

type solution = {
  u : Field.t;  (** Slotboom variable per node *)
  density : Field.t;  (** carrier density [m^-3] *)
  quasi_fermi : Field.t;  (** quasi-Fermi potential [V] *)
}

val solve :
  ?recombination:srh * Field.t * Field.t ->
  ?scratch:Poisson.scratch ->
  Structure.t ->
  carrier:carrier ->
  biases:Poisson.biases ->
  psi:Field.t ->
  solution
(** Direct sparse stencil solve for one carrier.  [recombination] carries
    the SRH lifetimes and the lagged electron and hole densities (in that
    order) from the previous Gummel iterate; omit it for the
    recombination-free problem.  [scratch] reuses the shared Poisson
    workspace's system matrix (safe: each solve re-assembles every row).
    Raises [Failure] on a singular system (cannot happen on a connected
    mesh with an ohmic contact). *)

val solve_into :
  recombination:(srh * Field.t * Field.t) option ->
  Poisson.scratch ->
  Structure.t ->
  carrier:carrier ->
  biases:Poisson.biases ->
  psi:Field.t ->
  dst:solution ->
  unit
(** {!solve} writing into [dst]'s buffers (each of the mesh's node count)
    instead of fresh fields: the same arithmetic, so the same bits.  Every
    input is read before [dst] is written. *)

val of_quasi_fermi : Structure.t -> carrier:carrier -> psi:Field.t -> dst:solution -> unit
(** Fill [dst]'s [u] and [density] from its [quasi_fermi] and [psi], as
    {!solve} derives [density] and [quasi_fermi] from [u]: so a density is
    n_i e^{(psi - phi_n)/vT} (electrons) or n_i e^{(phi_p - psi)/vT}
    (holes), under the same clamps. *)

val terminal_current :
  Structure.t -> carrier:carrier -> psi:Field.t -> u:Field.t -> float
(** Signed conventional current [A per metre of width] carried by this
    carrier through a vertical mid-channel cut, positive flowing from
    source side to drain side. *)
