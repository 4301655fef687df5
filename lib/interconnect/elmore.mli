(** Elmore delay estimate for RC lines. *)

val distributed_delay : r_per_l:float -> c_per_l:float -> length:float -> float
(** 0.38 r c L^2 — the distributed-RC 50 % step delay. *)
