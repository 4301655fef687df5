(** Scalar root finding.

    Every method has a bounded iteration budget, and exhausting it is never
    silent: the exhaustion path emits an [Obs.non_converged] event and then
    raises {!No_convergence}, which carries the best iterate so far. *)

exception
  No_convergence of {
    method_ : string;  (** ["bisect"] or ["brent"] *)
    a : float;  (** bracket low *)
    b : float;  (** bracket high *)
    best : float;  (** best iterate when the budget ran out *)
    residual : float;  (** [f best] *)
    iterations : int;
  }

val bisect : ?tol:float -> ?max_iter:int -> (float -> float) -> float -> float -> float
(** [bisect f a b] finds a root of [f] in [[a, b]].  Requires a sign change
    ([Invalid_argument] otherwise).  [tol] is the interval-width target
    (default 1e-12). *)

val brent : ?tol:float -> ?max_iter:int -> (float -> float) -> float -> float -> float
(** Brent's method: bisection safety with inverse-quadratic speed.  Same
    contract as {!bisect}. *)
