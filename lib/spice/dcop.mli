(** DC operating point: damped Newton on the MNA system, with source-stepping
    homotopy as a fallback when the direct solve fails to converge (the
    standard SPICE strategy). *)

exception No_convergence of string

type workspace
(** Newton scratch for one analysis: the iterate, the residual (which the
    solve overwrites with the update) and a {!Numerics.Sparse_lu.t} holding
    the Jacobian's values and factors, sized to the system.  Every {!newton} run
    overwrites all of it before reading it, so one workspace serves every
    Newton run of an analysis (each source step, each transient step).  It
    belongs to one analysis call: never share it between concurrent
    solves. *)

val workspace : Mna.system -> workspace
(** A workspace for Newton runs on this system's {!Mna.assemble}. *)

val newton :
  workspace ->
  (x:Numerics.Vec.t -> f:Numerics.Fvec.t -> jac:Numerics.Fvec.t -> unit) ->
  tol:float ->
  max_iter:int ->
  Numerics.Vec.t ->
  Numerics.Vec.t option
(** [newton ws assemble ~tol ~max_iter x0]: damped Newton from [x0], which
    is copied into [ws]'s iterate and not mutated.  The result is that
    iterate itself, not a copy: the next run on [ws] overwrites it, and it
    may be passed back as that run's [x0].  A run allocates a few words
    whatever the system's size.  [assemble ~x ~f ~jac]
    (typically a {!Mna.assemble} closure) overwrites [f] with F(x) and
    [jac] with dF/dx's values, both taken from [ws]; the Jacobian is
    factored without pivoting in the pattern's minimum-degree order.  Each
    update is clamped to 0.3 in the infinity norm; converged when an
    unclamped update is below [tol].  [None] on a zero pivot or after
    [max_iter] iterations.
    Raises [Invalid_argument] if [ws] is not sized to [x0].  Each iteration
    bumps the [spice.newton.iterations] counter. *)

val solve :
  ?x0:Numerics.Vec.t ->
  ?overrides:(string * float) list ->
  Mna.system ->
  Numerics.Vec.t
(** Operating point at [time = 0], to a final Newton update below 1e-9 V
    (infinity norm) within 120 iterations.  Raises {!No_convergence} if both
    the direct solve and 20-step source stepping fail. *)

val solve_in :
  workspace ->
  ?x0:Numerics.Vec.t ->
  ?overrides:(string * float) list ->
  Mna.system ->
  Numerics.Vec.t
(** [solve_in ws sys] is [solve sys] on the analysis's own workspace [ws]
    (built by [workspace sys]), so a sweep or a transient allocates its
    Newton scratch once rather than once per operating point.  Same
    result, bit for bit. *)
