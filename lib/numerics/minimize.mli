(** Scalar minimization. *)

val golden_section : ?tol:float -> (float -> float) -> float -> float -> float * float
(** [golden_section f a b] minimizes unimodal [f] on [[a, b]] (at most 200
    iterations); returns [(x_min, f x_min)]. *)

val grid_then_golden :
  ?samples:int -> ?tol:float -> (float -> float) -> float -> float -> float * float
(** Sample [samples] points (default 24) to locate the basin of the global
    minimum on [[a, b]], then refine with golden section.  Robust when [f] is
    not unimodal. *)
