(** Elmore delay estimates and SPICE pi-ladder models for RC lines. *)

val distributed_delay : r_per_l:float -> c_per_l:float -> length:float -> float
(** 0.38 r c L^2 — the distributed-RC 50 % step delay. *)

val driven_wire_delay :
  r_per_l:float -> c_per_l:float -> length:float -> r_driver:float -> c_load:float -> float
(** Elmore delay of a driver (output resistance [r_driver]) through a
    distributed line into a lumped load:
    0.69 (R_drv (C_wire + C_L) + r L (0.5 C_wire... )) — the usual
    first-order expression 0.69 R_drv (C_w + C_L) + 0.38 r c L^2
    + 0.69 r L C_L. *)
