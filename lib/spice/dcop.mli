(** DC operating point: damped Newton on the MNA system, with source-stepping
    homotopy as a fallback when the direct solve fails to converge (the
    standard SPICE strategy). *)

exception No_convergence of string

val newton :
  (Numerics.Vec.t -> Numerics.Vec.t * Numerics.Matrix.t) ->
  tol:float ->
  max_iter:int ->
  Numerics.Vec.t ->
  Numerics.Vec.t option
(** [newton assemble ~tol ~max_iter x0]: damped Newton on
    [assemble x = (F(x), dF/dx)] (typically a {!Mna.assemble} closure) from
    [x0], which is not mutated.  Each update is clamped to 0.3 in the
    infinity norm; converged when an unclamped update is below [tol].
    [None] on a singular Jacobian or after [max_iter] iterations. *)

val solve :
  ?x0:Numerics.Vec.t ->
  ?overrides:(string * float) list ->
  Mna.system ->
  Numerics.Vec.t
(** Operating point at [time = 0], to a final Newton update below 1e-9 V
    (infinity norm) within 120 iterations.  Raises {!No_convergence} if both
    the direct solve and 20-step source stepping fail. *)
