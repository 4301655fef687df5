(** Non-finite guard for solver entry/exit points.

    Solvers thread state vectors through long iterations; one NaN born in a
    badly scaled exponent silently poisons every later result.  This module
    provides zero-cost-when-disabled checks that solvers call on their
    inputs and outputs.  Inside {!with_guard}, the
    first non-finite value raises {!Non_finite} carrying the origin label
    of the call site, so the failure is located instead of laundered into a
    downstream "did not converge". *)

exception Non_finite of { origin : string; index : int option; value : float }

val is_enabled : unit -> bool

val with_guard : (unit -> 'a) -> 'a
(** Run a thunk with the guard enabled, restoring the previous state. *)

val float : origin:string -> float -> float
(** Identity when disabled or finite; raises {!Non_finite} otherwise. *)

val vec : origin:string -> float array -> float array
(** Identity when disabled; scans for the first non-finite element when
    enabled and raises {!Non_finite} with its index. *)

val fvec : origin:string -> Fvec.t -> Fvec.t
(** {!vec} for flat {!Fvec.t} buffers. *)
