(** Waveform measurements over sampled signals (time, value arrays of equal
    length) — crossings, propagation delay, rise/fall times, averages. *)

type edge = Rising | Falling | Either

val crossings : times:Numerics.Vec.t -> values:Numerics.Vec.t -> level:float -> edge ->
  float list
(** Interpolated crossing times of [level], filtered by edge direction. *)

val first_crossing :
  ?after:float -> times:Numerics.Vec.t -> values:Numerics.Vec.t -> level:float -> edge ->
  float option

val propagation_delay :
  times:Numerics.Vec.t ->
  input:Numerics.Vec.t ->
  output:Numerics.Vec.t ->
  level:float ->
  input_edge:edge ->
  float option
(** Delay from the input's first [level] crossing (of [input_edge]) to the
    output's next crossing of [level] in either direction — the standard
    50 %-to-50 % propagation delay when [level] = V_dd/2. *)

val slice_average :
  times:Numerics.Vec.t -> values:Numerics.Vec.t -> t0:float -> t1:float -> float
(** Time-weighted mean over a window (endpoints clamped to the record). *)
