(** Pentadiagonal linear systems from 5-point finite-volume stencils on a
    tensor mesh with nodes ordered [k = ix * ny + iy]: nonzero diagonals
    only at offsets 0, +-1 and +-m (m = ny).

    Unlike a generic banded LU — which stores and clears the full
    (2m+1)-diagonal band on every assembly — assembly here touches exactly
    the five stencil diagonals, and the LU workspace (where fill-in lives)
    is owned by the value, so a solver reusing one stencil across Newton /
    Gummel iterations allocates nothing per solve.  On the same matrix the
    solve is bit-identical to the generic band LU the tests keep as its
    oracle, [test/banded.ml] (same elimination order, no pivoting). *)

type t

val create : n:int -> m:int -> t
(** Zero system of order [n] with far-diagonal offset [m] (the inner mesh
    dimension).  Requires [1 <= m < n]. *)

val order : t -> int
val offset : t -> int

val rhs : t -> Fvec.t
(** The right-hand-side buffer; assembly writes it, {!solve} reads it (and
    leaves it intact). *)

type rows = {
  west : Fvec.t;  (** A(i, i-m), indexed by row i *)
  south : Fvec.t;  (** A(i, i-1) *)
  diag : Fvec.t;  (** A(i, i) *)
  north : Fvec.t;  (** A(i, i+1) *)
  east : Fvec.t;  (** A(i, i+m) *)
  rhs : Fvec.t;  (** the same buffer as {!rhs} *)
}
(** The five diagonals and the right-hand side, each of length {!order}.
    Entries whose column falls outside the matrix are never read. *)

val rows : t -> rows
(** The system's own buffers, for an assembler that writes every row in a
    hot loop: a write is a store, where {!set_row} is a call that boxes
    its six floats when it is not inlined (always, across libraries built
    with -opaque). *)

val get : t -> int -> int -> float
(** [get a i j] is A(i,j); zero off the stencil. *)

val set : t -> int -> int -> float -> unit
(** Raises [Invalid_argument] when [j - i] is not one of 0, +-1, +-m. *)

val set_row :
  t -> int -> west:float -> south:float -> diag:float -> north:float -> east:float ->
  rhs:float -> unit
(** Write row [i] in one shot: [west] is A(i,i-m), [south] A(i,i-1),
    [north] A(i,i+1), [east] A(i,i+m).  Entries whose column falls outside
    the matrix are ignored by {!solve}/{!mat_vec}, so pass 0.0 for them.
    An assembler that [set_row]s every row needs no zeroing pass first. *)

val mat_vec : t -> Fvec.t -> Fvec.t -> unit
(** [mat_vec a x y] writes A x into [y]. *)

val factor : t -> unit
(** Expand the diagonals into the internal band workspace and LU-factor it
    in place, without pivoting (adequate for the diagonally dominant
    finite-volume systems), allocation-free.  The factorization holds
    until the next [factor] or {!solve}: later edits of the diagonals do
    not reach it, so a chord Newton can reassemble and still {!substitute}
    through an older Jacobian.  Counts one
    ["numerics.stencil5.factorizations"].  Raises [Failure] on a
    (near-)zero pivot. *)

val substitute : t -> dst:Fvec.t -> unit
(** [substitute a ~dst] overwrites [dst] with A⁻¹ dst, A being the matrix
    of the last {!factor}.  Reads only the factorization, so any number of
    calls may follow one [factor]. *)

val solve : t -> dst:Fvec.t -> unit
(** Solve A x = rhs into [dst], allocation-free: {!factor}, copy [rhs] into
    [dst], {!substitute} — the same bits as one pass doing all three.  The
    diagonals and [rhs] are preserved.  Raises [Failure] on a (near-)zero
    pivot. *)
