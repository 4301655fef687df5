(** Nonlinear Poisson solver: div(eps grad psi) = -q (p - n + C) with
    Boltzmann carriers at frozen quasi-Fermi potentials (one Gummel half
    step).  Finite-volume on the tensor mesh; damped Newton with a sparse
    direct solver for the 5-point stencil ({!Numerics.Stencil5}) over
    flat {!Field.t} buffers.

    Potentials are referenced to the intrinsic Fermi level, so an ohmic
    contact at applied bias V is the Dirichlet value
    V + vT asinh(C / 2 n_i), and the n+ poly gate couples through the oxide
    with potential V_g + phi_gate. *)

type biases = { source : float; drain : float; gate : float; substrate : float }

val zero_bias : biases

type solution = {
  psi : Field.t;
  iterations : int;
  residual : float;  (** infinity norm of the scaled residual [V] *)
  converged : bool;
}

type iterate = {
  psi : Field.t;
  u : Field.t;
  w : Field.t;
  n : Field.t;
  p : Field.t;
  phi_n : Field.t;
  phi_p : Field.t;
}
(** One Gummel iterate's fields, laid out as {!Gummel.state}'s. *)

type history
(** The last few converged states of a warm sweep, the swept bias of each
    and copies of its potentials: four at most, so {!extrapolate} fits a
    cubic at most.  Abstract, so its buffers all have the scratch's node
    count. *)

type scratch = private {
  sys : Numerics.Stencil5.t;  (** the system matrix *)
  work : Field.t;  (** the Newton update *)
  expo : Field.t;  (** {!Continuity}'s Boltzmann exponent per node *)
  boltz : Field.t;  (** ... and its [exp] *)
  ping : iterate;
  pong : iterate;  (** the two iterates {!Gummel.gummel_at} alternates between *)
  history : history;  (** {!remember}'s states *)
}
(** Reusable workspace for the whole TCAD chain: one scratch serves every
    Poisson, continuity and Gummel solve on meshes of the same shape, but
    must not be shared across concurrent domains.  Private, so every
    scratch comes from {!make_scratch} and all its buffers have the
    structure's node count: the solvers index them unchecked once the
    system's shape matches the mesh. *)

val make_scratch : Structure.t -> scratch

val forget : scratch -> unit
(** Drop the kept states: a new sweep plane starts. *)

val remember : scratch -> at:float -> psi:Field.t -> phi_n:Field.t -> phi_p:Field.t -> unit
(** Keep copies of [psi], [phi_n] and [phi_p] as the newest state, at swept
    bias [at], dropping the oldest beyond four.  The fields may be the
    scratch's own iterate buffers.  Raises [Invalid_argument] when a
    field's length is not the scratch's node count. *)

val extrapolate : scratch -> at:float -> psi:Field.t -> phi_n:Field.t -> phi_p:Field.t -> bool
(** Write into [psi], [phi_n] and [phi_p] the Lagrange polynomial in bias
    through the kept states, evaluated at [at]: a cubic through four, lower
    when fewer are kept or while a weight exceeds a fixed bound (crowded
    biases).  Returns [false], writing nothing, when no order of at least
    linear is left.  Raises [Invalid_argument] when a field's length is not
    the scratch's node count. *)

val equilibrium_guess : Structure.t -> Field.t
(** Charge-neutral potential per node — the standard initial guess (a copy
    of the structure's precomputed [bulk_phi]). *)

val solve :
  ?tol:float ->
  ?quiet:bool ->
  ?scratch:scratch ->
  Structure.t ->
  biases:biases ->
  phi_n:Field.t ->
  phi_p:Field.t ->
  psi0:Field.t ->
  solution
(** Newton iteration from [psi0] (at most 80 iterations); per-node updates are
    clamped to a fraction of a volt for robustness.  A chord method: a step
    reuses the previous step's factorization while the scaled residual
    contracts at least tenfold per step, and refactors otherwise; no
    factorization is kept past the solve.  [tol] (default 1e-9 V)
    bounds the update norm.  [quiet] suppresses the [Obs.non_converged] event
    on a stall (for speculative warm starts that have a planned fallback); the
    returned [converged] flag is unaffected.  [scratch] reuses an assembly
    workspace across calls; one is allocated per call when omitted. *)

val solve_into :
  tol:float ->
  quiet:bool ->
  scratch ->
  Structure.t ->
  biases:biases ->
  phi_n:Field.t ->
  phi_p:Field.t ->
  psi0:Field.t ->
  dst:Field.t ->
  solution
(** {!solve} that iterates in [dst] (a buffer of the mesh's node count)
    instead of a fresh copy of [psi0], and returns it as the solution's
    [psi]: the same arithmetic, so the same bits. *)
