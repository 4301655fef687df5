(** Small statistics helpers used by extraction and bench reporting. *)

val mean : Vec.t -> float

val stddev : Vec.t -> float
(** Sample standard deviation (n-1 denominator); 0 for fewer than 2 points. *)

val sort : Vec.t -> unit
(** Sort in place into increasing order: bit for bit [Array.sort compare],
    NaNs first and equal keys where it leaves them, without boxing an
    element. *)

val minimum : Vec.t -> float

val maximum : Vec.t -> float

val linear_regression : Vec.t -> Vec.t -> float * float
(** [linear_regression xs ys] is [(slope, intercept)] of the least-squares
    line.  Raises [Invalid_argument] on mismatch or fewer than 2 points. *)

val normal_cdf : ?mean:float -> ?sigma:float -> float -> float
(** Gaussian cumulative distribution, through a rational approximation of
    erf (|error| < 1.5e-7). *)
