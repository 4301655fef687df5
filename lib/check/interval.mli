(** Sound interval arithmetic — the abstract domain of [subscale audit].

    A value is a closed non-empty interval of reals (endpoints may be
    infinite, never NaN).  Every operation over-approximates: the result
    contains the true image of the inputs, with finite endpoints pushed
    outward by a few ulps to absorb rounding.  Tightness is sacrificed for
    soundness — [sub x x] is not zero — which is exactly what a validity
    proof needs: if the propagated interval avoids a hazard, every concrete
    execution does too. *)

type t = private { lo : float; hi : float }

exception Invalid of string
(** Raised on NaN endpoints, crossed endpoints, or domain violations the
    caller was expected to screen ([sqrt] of a negative interval). *)

val make : float -> float -> t
(** [make lo hi] with [lo <= hi]; raises {!Invalid} otherwise. *)

val point : float -> t
val top : t
(** The whole real line. *)

val lo : t -> float
val hi : t -> float
val mem : float -> t -> bool
val straddles_zero : t -> bool
(** Strictly: [lo < 0 < hi]. *)

val is_finite : t -> bool
val to_string : t -> string

val neg : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val scale : float -> t -> t
val div : t -> t -> t
(** A zero-straddling divisor yields {!top} (the true image is unbounded) —
    check {!straddles_zero} first when that case is a diagnostic. *)

val exp : t -> t
val sqrt : t -> t
val pow_const : t -> float -> t
(** [pow_const x c] is x{^c} for x >= 0 (negative parts are clamped away).
    For [c > 0] a base reaching 0 gives the exact lower bound 0.0. *)

val min_ : t -> t -> t
val clamp_lo : float -> t -> t
(** Intersect with [[floor, +inf)] (used after flagging an invalid region
    to keep propagating over the surviving part of the box). *)

val widen : rel:float -> t -> t
(** Relative outward widening: each endpoint moves out by [rel *. abs
    endpoint]. *)

val mono_incr : (float -> float) -> t -> t
(** Lift a non-decreasing function by endpoint evaluation, stepping the
    results outward by two ulps. *)

val mono_decr : (float -> float) -> t -> t

val mono_incr_decr : (float -> float -> float) -> t -> t -> t
(** Lift a function non-decreasing in its first argument and non-increasing
    in its second by corner evaluation, stepping outward by two ulps. *)
