(** Flat per-node field state: float64 Bigarray buffers (C layout) indexed
    by the mesh's flat node order [k = ix * ny + iy].

    [Field.t] {e is} {!Numerics.Fvec.t} — contiguous, unboxed, and usable
    with the [.{k}] indexing syntax — so solver assembly runs allocation-
    free over the same buffers the {!Gummel.state} carries between bias
    points.  {!Mask} packs the per-node boundary classification into an
    int8 buffer for branch-cheap dispatch inside assembly loops; the
    structured {!Structure.boundary} array remains the source of truth for
    non-hot-path consumers (audits, tests). *)

include module type of Numerics.Fvec

module Mask : sig
  type t = (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

  val interior : int
  val reflecting : int
  val gate_surface : int

  val first_ohmic : int
  (** Ohmic nodes are exactly those with code [>= first_ohmic]; the
      terminal index is [code - first_ohmic] in the order source, drain,
      gate, substrate. *)

  val ohmic_source : int
  val ohmic_drain : int
  val ohmic_gate : int
  val ohmic_substrate : int

  val create : int -> t
  (** Filled with {!interior}. *)

  val set : t -> int -> int -> unit
end
