(** Quadrature over sampled data and adaptive quadrature of functions. *)

val trapezoid_samples : Vec.t -> Vec.t -> float
(** [trapezoid_samples xs ys] integrates tabulated data by the trapezoid
    rule.  Abscissae must be increasing. *)
