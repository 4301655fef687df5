(** Small statistics helpers used by extraction and bench reporting. *)

val mean : Vec.t -> float

val stddev : Vec.t -> float
(** Sample standard deviation (n-1 denominator); 0 for fewer than 2 points. *)

val minimum : Vec.t -> float

val maximum : Vec.t -> float

val linear_regression : Vec.t -> Vec.t -> float * float
(** [linear_regression xs ys] is [(slope, intercept)] of the least-squares
    line.  Raises [Invalid_argument] on mismatch or fewer than 2 points. *)

val correlation : Vec.t -> Vec.t -> float
(** Pearson correlation coefficient. *)

val geometric_mean_ratio : Vec.t -> float
(** For a positive series y_0..y_n, the geometric mean of successive ratios
    y_{i+1}/y_i — the paper's "% per generation" figure of merit. *)

val normal_cdf : ?mean:float -> ?sigma:float -> float -> float
(** Gaussian cumulative distribution, through a rational approximation of
    erf (|error| < 1.5e-7). *)
