(** Gummel (decoupled) iteration: alternate the nonlinear Poisson half-step
    (frozen quasi-Fermi levels) with the two linear carrier-continuity
    solves until the potential stops moving, ramping terminal biases in
    steps small enough that each warm start converges.

    The solver is bipolar: both electron and hole continuity are solved each
    sweep (with SRH recombination coupling them), so N-channel and P-channel
    devices run through the same loop and the reported drain current is the
    total (electron + hole) current through the mid-channel cut.

    The iterations run in the scratch's buffers.  {!equilibrium},
    {!gummel_at} and {!solve_at} return their states in fresh fields, so
    those states are immutable: one can seed several
    later solves (sweep continuation in {!Extract}) and is safe to hold
    across them.  Only {!continue_at}'s states borrow the scratch. *)

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
    way.  [scratch] holds the system matrix and the two iterates the
    inner iterations alternate between; one is allocated per call when
    omitted. *)

val continue_at :
  ?tol:float -> ?max_gummel:int -> ?quiet:bool -> scratch:Poisson.scratch -> Structure.t ->
  from:state -> Poisson.biases -> state
(** {!gummel_at} without copying the result out: the returned state's
    fields are [scratch]'s own buffers, so it holds only until the next
    solve on [scratch].  For a continuation that jumps from each state to
    the next and keeps none ({!Extract}'s warm sweeps); [from] may be such
    a state. *)

(** {2 Warm-start prediction}

    A sweep keeps its last few converged states in the scratch
    ({!Poisson.history}; {!Poisson.forget} starts a new plane) and starts
    each jump from their extrapolation to the next bias, not from the last
    state alone. *)

val remember : Poisson.scratch -> at:float -> state -> unit
(** {!Poisson.remember} of [state]'s potentials: keep them as the newest
    point, at swept bias [at].  [state] may be borrowed from the same
    scratch. *)

val predict : Poisson.scratch -> Structure.t -> from:state -> at:float -> state
(** The start for a jump to swept bias [at]: psi, phi_n and phi_p from the
    Lagrange polynomial in bias through the kept points
    ({!Poisson.extrapolate}: cubic through four, lower when fewer are kept
    or when the cubic's weights exceed a fixed bound), n and p derived from
    them as {!Continuity.solve} derives them.  The weights sum to 1, so this also extrapolates ln n and ln p.
    Returns [from] itself when fewer than two points are kept or every
    order's weights are out of bounds (crowded biases).  The prediction
    is written into whichever of the scratch's two iterates does not hold
    [from], so it invalidates any other state borrowed from the scratch,
    and it holds until the next solve on the scratch.  It is a start, not
    a solution, and carries [from]'s biases and current. *)

val solve_at :
  ?tol:float -> ?max_gummel:int -> ?scratch:Poisson.scratch -> Structure.t -> from:state ->
  Poisson.biases -> state
(** [solve_at dev ~from target] ramps from the bias point of [from] to
    [target] in steps of at most 0.1 V and Gummel-iterates at each point,
    with SRH recombination at {!Continuity.default_srh}.  Raises {!No_convergence} with a diagnostic if either
    inner solver stalls. *)
