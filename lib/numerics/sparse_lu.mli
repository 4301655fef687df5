(** Sparse LU factorization without pivoting, in a minimum-degree order.

    {!analyse} takes the pattern of a square matrix A as the coordinates
    of each slot of a flat value buffer, and orders the graph
    of the pattern made symmetric (A + Aᵀ) by minimum degree.  The symbolic
    LU comes out of that same elimination: the neighbours a node still has
    when it is eliminated are its U row and its L column.  The result is
    immutable and can be shared.  Each {!t} built from it owns its numeric
    buffers: the values of A, which the caller writes in place (or
    accumulates into) by slot, and the factors.

    No pivoting means every pivot must stay away from zero in the chosen
    order: the callers' systems are diagonally dominant (the TCAD stencils)
    or have every diagonal structurally nonzero (the MNA Jacobian). *)

exception Zero_pivot of int
(** Raised by {!factor} on a pivot below 1e-300 in magnitude; the payload
    is the row of A (in the caller's numbering). *)

type symbolic

val analyse : n:int -> slots:int -> row:(int -> int) -> col:(int -> int) -> symbolic
(** [analyse ~n ~slots ~row ~col] orders the [n] rows and computes the
    symbolic LU of a matrix whose values live in a buffer of [slots]
    slots: slot [s] holds A([row s], [col s]), and a slot with a negative
    row is padding that nothing reads ([col] is not asked for it).  The
    coordinates come back as two ints, so asking for them allocates
    nothing.  Every diagonal needs a
    slot, and no (i, j) may have two.  The ordering breaks ties toward the
    lowest row, so the same pattern always gives the same order.  Raises
    [Invalid_argument] on a coordinate outside the matrix, a row without a
    diagonal slot, or [slots] of 2{^32} or more. *)

type t

val create : symbolic -> t
(** Fresh numeric buffers for one factorization at a time, all zero. *)

val values : t -> Fvec.t
(** The value buffer, of the [slots] given to {!analyse}: the caller
    writes A into it before {!factor}. *)

val factor : t -> unit
(** LU-factor the values, row by row in the minimum-degree order, into the
    value's own storage, allocation-free.  The factorization holds until
    the next [factor]: later writes to {!values} do not reach it.  Raises
    {!Zero_pivot} on a (near-)zero pivot.  Each call bumps the
    [numerics.sparse_lu.factorizations] counter, the MNA Newton's and
    Stencil5's alike. *)

val substitute : t -> dst:Fvec.t -> unit
(** [substitute a ~dst] overwrites [dst] with A⁻¹ dst, A being the matrix
    of the last {!factor}.  Reads only the factorization, so any number of
    calls may follow one [factor]. *)
