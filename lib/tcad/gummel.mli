(** Gummel (decoupled) iteration: alternate the nonlinear Poisson half-step
    (frozen quasi-Fermi levels) with the two linear carrier-continuity
    solves until the potential stops moving, ramping terminal biases in
    steps small enough that each warm start converges.

    The solver is bipolar: both electron and hole continuity are solved each
    sweep (with SRH recombination coupling them), so N-channel and P-channel
    devices run through the same loop and the reported drain current is the
    total (electron + hole) current through the mid-channel cut.

    States are immutable once returned: every solve writes fresh field
    buffers, so a state can seed several later solves (warm-started sweep
    continuation in {!Extract}) and is safe to hold across them. *)

type state = {
  biases : Poisson.biases;
  psi : Field.t;
  u : Field.t;  (** electron Slotboom variable *)
  w : Field.t;  (** hole Slotboom variable *)
  n : Field.t;  (** electron density [m^-3] *)
  p : Field.t;  (** hole density [m^-3] *)
  phi_n : Field.t;
  phi_p : Field.t;
  drain_current : float;  (** total conventional current magnitude [A/m] *)
}

exception No_convergence of string

val equilibrium : ?scratch:Poisson.scratch -> Structure.t -> state
(** Thermal-equilibrium solution (all terminals grounded). *)

val gummel_at :
  ?tol:float -> ?max_gummel:int -> ?quiet:bool -> ?scratch:Poisson.scratch -> Structure.t ->
  from:state -> Poisson.biases -> state
(** One Gummel iteration at exactly the target biases, warm-started from
    [from] with no ramping — the primitive {!solve_at} ramps over, exposed
    for speculative continuation jumps.  Tightening [tol] below its 5e-7
    default also tightens the inner Poisson tolerance in proportion, so the
    fixed point is resolved to [tol].  [quiet] suppresses [Obs]
    non-convergence events (counter and trace instant) on a stall — for
    attempts with a planned fallback; {!No_convergence} is raised either
    way.  [scratch] reuses one assembly workspace across the whole
    iteration. *)

val solve_at :
  ?tol:float -> ?max_gummel:int -> ?scratch:Poisson.scratch -> Structure.t -> from:state ->
  Poisson.biases -> state
(** [solve_at dev ~from target] ramps from the bias point of [from] to
    [target] in steps of at most 0.1 V and Gummel-iterates at each point,
    with SRH recombination at {!Continuity.default_srh}.  Raises {!No_convergence} with a diagnostic if either
    inner solver stalls. *)
