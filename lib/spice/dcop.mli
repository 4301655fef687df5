(** DC operating point: damped Newton on the MNA system, with source-stepping
    homotopy as a fallback when the direct solve fails to converge (the
    standard SPICE strategy). *)

exception No_convergence of string

type workspace
(** Newton scratch for one analysis: the iterate, the residual (which the
    solve overwrites with the update), a {!Numerics.Sparse_lu.t} holding
    the Jacobian's values and factors, the sources' {!Mna.drive} and
    values, and a MOSFET stamp's bias buffer, all sized to the system.
    Every {!newton} run overwrites all of it but the drive before reading
    it, so one workspace serves every Newton run of an analysis (each
    source step, each transient step).  It belongs to one analysis call:
    never share it between concurrent solves. *)

val workspace : Mna.system -> workspace
(** A workspace for Newton runs on this system, its drive at time 0 and
    scale 1. *)

val drive : workspace -> Mna.drive
(** The time and source scale the next {!newton} run solves at; a
    transient sets the time of each step here. *)

val iterate : workspace -> Numerics.Vec.t
(** The workspace's iterate: after a {!newton} run that returned true, its
    solution.  Not a copy: the next run overwrites it, and it may be
    passed back as that run's [x0]. *)

val newton :
  workspace ->
  Mna.system ->
  overrides:(string * float) list ->
  caps:Mna.cap_companion array ->
  max_iter:int ->
  Numerics.Vec.t ->
  bool
(** [newton ws sys ~overrides ~caps ~max_iter x0]: damped Newton from
    [x0], which is copied into {!iterate} and not mutated, on
    {!Mna.assemble} at [ws]'s drive ([overrides] and [caps] as there; the
    sources are read once per run, by {!Mna.source_values}).  The Jacobian
    is factored without pivoting in the pattern's minimum-degree order.
    Each update is clamped to 0.3 in the infinity norm; true, with the
    solution in {!iterate}, when an unclamped update is below 1e-9; false
    on a zero pivot or after [max_iter] iterations.  A run allocates
    nothing unless an override matches.  Raises [Invalid_argument] if
    [ws] is not sized to [x0].  Each iteration bumps the
    [spice.newton.iterations] counter. *)

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
