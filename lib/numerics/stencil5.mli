(** Linear systems from 5-point finite-volume stencils on a tensor mesh
    with nodes ordered [k = ix * ny + iy]: node [k] couples to [k-1] and
    [k+1] inside its mesh column (the same [ix]) and to [k-m] and [k+m]
    (m = ny).  Assembly touches exactly those five diagonals.

    A [+-1] entry that would cross a mesh column — A(i, i-1) when
    [i mod m = 0], A(i, i+1) when [i mod m = m-1] — is not part of the
    system: the mesh has no such edge.  When [m = 1] every column is one
    node, so only the [+-m] diagonals couple.

    The 5-point front end of {!Sparse_lu}: {!create} hands it the mesh
    graph, which it orders by minimum degree, computing the symbolic LU
    from that elimination, once per value; {!factor} is its LU without
    pivoting in that order, and {!substitute} its permuted forward and back
    sweep.  The five diagonals are views into the LU's value buffer, so
    assembly writes what {!factor} reads.  All storage is owned by the
    value, so a solver reusing one stencil across Newton / Gummel
    iterations allocates nothing per solve.  The tests check the solution against a generic band LU,
    [test/banded.ml], to 1e-12 relative; the two eliminate in different
    orders, so their last bits differ. *)

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
    Entries off the stencil — a column outside the matrix, or a [+-1]
    across a mesh column — are never read. *)

val rows : t -> rows
(** The system's own buffers, for an assembler that writes every row in a
    hot loop: a write is a store, where {!set_row} is a call that boxes
    its six floats when it is not inlined (always, across libraries built
    with -opaque). *)

val get : t -> int -> int -> float
(** [get a i j] is A(i,j); zero off the stencil, including a [+-1] entry
    across a mesh column. *)

val set : t -> int -> int -> float -> unit
(** Raises [Invalid_argument] when (i, j) is off the stencil: [j - i] not
    one of 0, +-1, +-m, or a [+-1] across a mesh column. *)

val set_row :
  t -> int -> west:float -> south:float -> diag:float -> north:float -> east:float ->
  rhs:float -> unit
(** Write row [i] in one shot: [west] is A(i,i-m), [south] A(i,i-1),
    [north] A(i,i+1), [east] A(i,i+m).  Entries off the stencil (a column
    outside the matrix, a [+-1] across a mesh column) are stored but
    ignored by {!factor}/{!solve}/{!mat_vec}, so any value will do there.
    An assembler that [set_row]s every row needs no zeroing pass first. *)

val mat_vec : t -> Fvec.t -> Fvec.t -> unit
(** [mat_vec a x y] writes A x into [y]. *)

val factor : t -> unit
(** LU-factor the diagonals into the value's own storage, row by row in
    the minimum-degree order, without pivoting (adequate for the
    diagonally dominant finite-volume systems), allocation-free.  The
    factorization holds until the next [factor] or {!solve}: later edits
    of the diagonals do not reach it, so a chord Newton can reassemble
    and still {!substitute} through an older Jacobian.  Counts one
    ["numerics.stencil5.factorizations"].  Raises [Failure] on a
    (near-)zero pivot, naming its row. *)

val substitute : t -> dst:Fvec.t -> unit
(** [substitute a ~dst] overwrites [dst] with A⁻¹ dst, A being the matrix
    of the last {!factor}.  Reads only the factorization, so any number of
    calls may follow one [factor]. *)

val solve : t -> dst:Fvec.t -> unit
(** Solve A x = rhs into [dst], allocation-free: {!factor}, copy [rhs] into
    [dst], {!substitute} — the same bits as one pass doing all three.  The
    diagonals and [rhs] are preserved.  Raises [Failure] on a (near-)zero
    pivot. *)
