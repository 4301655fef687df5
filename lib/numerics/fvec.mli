(** Flat float64 vectors ([Bigarray.Array1], C layout) for solver hot
    paths: contiguous, unboxed, and shareable across domains without the
    OCaml heap in the way.  The TCAD field state ([Tcad.Field]) and the
    sparse LU ({!Sparse_lu}) with its pentadiagonal front end
    ({!Stencil5}) are built on these.

    The [.{i}] indexing syntax works on values of this type. *)

type t = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

val create : int -> t
(** Zero-filled vector of the given length. *)

val init : int -> (int -> float) -> t

val length : t -> int

val get : t -> int -> float
val set : t -> int -> float -> unit

val unsafe_get : t -> int -> float
(** No bounds check — hot loops only. *)

val fill : t -> float -> unit

val blit : t -> t -> unit
(** [blit src dst]; lengths must match. *)

val copy : t -> t

val map : (float -> float) -> t -> t

val for_all : (float -> bool) -> t -> bool

val max_abs_diff : t -> t -> float
(** Inf-norm of the difference; raises [Invalid_argument] on a length
    mismatch. *)
