(** Dense float vectors as [float array] with the usual BLAS-1 operations.
    All binary operations require equal lengths and raise [Invalid_argument]
    otherwise. *)

type t = float array

val create : int -> float -> t
(** [create n x] is a vector of [n] copies of [x]. *)

val linspace : float -> float -> int -> t
(** [linspace a b n] is [n] points evenly spaced from [a] to [b] inclusive.
    Requires [n >= 2]. *)

val add : t -> t -> t

val max_abs_diff : t -> t -> float
(** Infinity norm of the difference. *)
