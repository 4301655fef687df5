(** Repeater insertion for long wires.

    In super-V_th design the optimal repeater spacing is a classic result;
    in the sub-V_th regime gate delay is so large that the optimal segment
    grows enormously — most on-chip wires never need repeaters, a
    qualitative difference this module quantifies. *)

val optimal_segment_length :
  Circuits.Inverter.pair ->
  sizing:Circuits.Inverter.sizing ->
  vdd:float ->
  geometry:Wire.geometry ->
  float
(** L_opt = sqrt(2 R_drv (C_in + C_par) / (0.38 r c)) [m] — the spacing at
    which segment wire delay matches repeater delay. *)
