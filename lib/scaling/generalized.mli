(** Generalized scaling theory (Baccarani/Wordeman/Dennard) — the paper's
    Table 1: how each quantity ideally scales when physical dimensions
    shrink by 1/alpha and the peak channel field is allowed to grow by
    epsilon per generation. *)

type factors = {
  physical_dimension : float;  (** 1/alpha *)
  channel_doping : float;  (** epsilon alpha *)
  vdd : float;  (** epsilon/alpha *)
  area : float;  (** 1/alpha^2 *)
  delay : float;  (** 1/alpha *)
  power : float;  (** epsilon^2/alpha^2 *)
}

val factors : alpha:float -> epsilon:float -> factors

val apply :
  generations:int -> alpha:float -> epsilon:float ->
  Device.Params.physical -> Device.Params.physical
(** Ideal generalized scaling of a device record: dimensions, doping and
    V_dd follow Table 1 for [generations] steps.  (The paper's point is that
    real scaling deviates from this — T_ox lags — which {!Roadmap} captures;
    this function provides the idealized comparison.) *)
