(** 2-D tensor-product finite-volume mesh for the device simulator.

    Coordinates: [x] runs laterally (source to drain), [y] runs vertically
    from the Si/SiO2 interface ([y = 0]) down into the substrate.  The gate
    oxide is not meshed; it enters the Poisson problem as a Robin boundary
    term on the surface boxes under the gate (see {!Poisson}).

    Nodes are indexed [k = ix * ny + iy] so that the vertical dimension
    (the smaller one) sets the matrix bandwidth. *)

type t = {
  xs : Numerics.Vec.t;  (** lateral node coordinates [m], increasing *)
  ys : Numerics.Vec.t;  (** vertical node coordinates [m], 0 at surface *)
  nx : int;
  ny : int;
  hx : Numerics.Vec.t;  (** precomputed spacings [xs.(i+1) - xs.(i)], length nx-1 *)
  hy : Numerics.Vec.t;  (** precomputed spacings [ys.(i+1) - ys.(i)], length ny-1 *)
  wx : Numerics.Vec.t;  (** precomputed dual-box widths per column, length nx *)
  wy : Numerics.Vec.t;  (** precomputed dual-box widths per row, length ny *)
}

val make : xs:Numerics.Vec.t -> ys:Numerics.Vec.t -> t
(** Validates monotonicity and minimum size (3 x 3). *)

val n_nodes : t -> int

val index : t -> ix:int -> iy:int -> int

val coords : t -> int -> float * float
(** Node coordinates from the flat index. *)

val dual_width_y : t -> int -> float
(** [dual_width_y m iy] is the finite-volume box height around row [iy]
    (half-spacing on each interior side). *)

val find_ix : t -> float -> int
(** Nearest column index to a lateral coordinate. *)
