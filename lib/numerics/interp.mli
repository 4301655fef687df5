(** Interpolation over tabulated data with strictly increasing abscissae. *)

val linear : Vec.t -> Vec.t -> float -> float
(** [linear xs ys x] linearly interpolates; clamps outside the table.
    Raises [Invalid_argument] on length mismatch or fewer than 2 points. *)

val resample : n:int -> sample:(int -> float array -> unit) -> Vec.t -> dst:Vec.t -> unit
(** [resample ~n ~sample grid ~dst] overwrites [dst] (of [grid]'s length)
    with [Array.map (linear xs ys) grid], bit for
    bit, for the table of [n] points that [sample i xy] writes, abscissa
    [xs.(i)] into [xy.(0)] and ordinate [ys.(i)] into [xy.(1)], without
    building it: one merge walk calls [sample] once per index, in
    increasing order, always on the same two-float buffer, so a sample
    crosses no call boundary boxed.  [grid] must be non-decreasing (no
    NaN).  Raises [Invalid_argument] on fewer than 2 points, on abscissae
    that are not strictly increasing (anywhere in the table, as {!linear}
    does), on a decreasing grid and on a [dst] of another length. *)

val search : Vec.t -> float -> int
(** [search xs x] is the index [i] such that [xs.(i) <= x < xs.(i+1)]
    (clamped to [[0, n-2]]). *)

val crossings : Vec.t -> Vec.t -> float -> float list
(** [crossings xs ys level] returns the linearly interpolated [x] positions
    where the sampled curve crosses [level], in order. *)
