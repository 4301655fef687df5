(** Power analysis over a gate-level design: signal-probability propagation
    (the classic zero-delay independence model), state-weighted leakage from
    the library's per-state tables, and activity-based dynamic power. *)

type net_stats = {
  probability : float;  (** P(net = 1) *)
  activity : float;  (** toggle probability per cycle, 2 p (1 - p) *)
}

val propagate_probabilities :
  ?input_probability:(Design.net -> float) ->
  Design.t ->
  net_stats array
(** Topological signal-probability propagation assuming spatial and temporal
    independence (inputs default to P = 0.5).  INV: 1 - p; NAND2:
    1 - pa pb; NOR2: (1-pa)(1-pb). *)

type summary = {
  leakage_power : float;  (** state-probability-weighted static power [W] *)
  dynamic_power : float;  (** alpha C V^2 f switching power [W] *)
  total_power : float;
  total_switched_cap : float;  (** activity-weighted capacitance [F] *)
}

val analyze : Cell_lib.library -> Design.t -> frequency:float -> summary
(** Leakage: for every gate, sum over its input states of
    P(state) x I_leak(state) x V_dd, with inputs at P = 0.5.  Dynamic: per
    net, activity x C_net x V_dd^2 x frequency, with C_net the fanout input
    pins. *)
