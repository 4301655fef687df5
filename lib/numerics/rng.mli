(** Small deterministic pseudo-random generator (xoshiro256starstar) for Monte
    Carlo studies — seedable, reproducible across runs, independent of the
    global [Random] state. *)

type t

val create : seed:int -> t

val float : t -> float
(** Uniform in [0, 1). *)

val normal : t -> mean:float -> sigma:float -> float
(** Gaussian, from standard normal draws by Box–Muller. *)

val int : t -> bound:int -> int
(** Uniform in [0, bound). *)
