(** Interpolation over tabulated data with strictly increasing abscissae. *)

val linear : Vec.t -> Vec.t -> float -> float
(** [linear xs ys x] linearly interpolates; clamps outside the table.
    Raises [Invalid_argument] on length mismatch or fewer than 2 points. *)

val search : Vec.t -> float -> int
(** [search xs x] is the index [i] such that [xs.(i) <= x < xs.(i+1)]
    (clamped to [[0, n-2]]). *)

val crossings : Vec.t -> Vec.t -> float -> float list
(** [crossings xs ys level] returns the linearly interpolated [x] positions
    where the sampled curve crosses [level], in order. *)
