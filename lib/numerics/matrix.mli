(** Small dense matrices with LU factorization, used for modified nodal
    analysis systems (tens of unknowns).  Row-major [float array array]. *)

type t = float array array

val create : int -> int -> t
(** [create n m] is an [n] x [m] zero matrix. *)

val identity : int -> t

val copy : t -> t

val mat_vec : t -> Vec.t -> Vec.t

val mat_mul : t -> t -> t

val transpose : t -> t

exception Singular of int
(** Raised by the factorization when a pivot column is numerically zero; the
    payload is the offending column index. *)

type lu
(** An LU factorization with partial pivoting. *)

val lu_factor : t -> lu
(** Factor a square matrix (the input is not modified).
    Raises {!Singular} if the matrix is singular. *)

val lu_solve : lu -> Vec.t -> Vec.t
(** Solve [A x = b] given the factorization of [A]. *)

val solve : t -> Vec.t -> Vec.t
(** One-shot [solve a b]: factor then solve. *)
