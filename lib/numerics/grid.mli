(** 1-D mesh generators for the TCAD discretization.  All grids are strictly
    increasing float arrays of node coordinates. *)

val geometric : float -> float -> h0:float -> ratio:float -> Vec.t
(** [geometric a b ~h0 ~ratio] starts with spacing [h0] at [a] and grows each
    step by [ratio] (>= 1) until reaching [b]; the final node is clamped to
    [b]. *)

val refined_around :
  float -> float -> centers:Vec.t -> h_min:float -> h_max:float -> Vec.t
(** [refined_around a b ~centers ~h_min ~h_max] builds a graded grid on
    [[a, b]] whose spacing is [h_min] near each centre and grows smoothly to
    at most [h_max] away from them. *)

val spacings : Vec.t -> Vec.t
(** [spacings xs].(i) = xs.(i+1) - xs.(i). *)
