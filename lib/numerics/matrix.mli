(** Small dense matrices with LU factorization, used for modified nodal
    analysis systems (tens of unknowns).  Row-major [float array array]. *)

type t = float array array

val create : int -> int -> t
(** [create n m] is an [n] x [m] zero matrix. *)

exception Singular of int
(** Raised by the factorization when a pivot column is numerically zero; the
    payload is the offending column index. *)

val lu_factor_in_place : t -> int array -> unit
(** [lu_factor_in_place a perm] overwrites the square [a] with its LU
    factorization with partial pivoting (rows swapped, L below the diagonal
    with a unit diagonal, U on and above it) and [perm], of length n, with
    the row permutation.  Allocates nothing.  Raises {!Singular} if the
    matrix is singular; [a] is then partly overwritten. *)

val lu_solve_into : t -> int array -> Vec.t -> Vec.t -> unit
(** [lu_solve_into lu perm b x] writes the solution of [A x = b] into [x],
    given [lu] and [perm] from {!lu_factor_in_place} on [A].  [b] is not
    modified and must not be [x]. *)
