(** Transient analysis: fixed-step trapezoidal integration with a Newton
    solve per time point (capacitors as trapezoidal companion models).
    The first step is backward Euler to damp the trapezoidal rule's
    start-up ringing. *)

type result = {
  times : Numerics.Vec.t;
  node_voltages : Numerics.Vec.t array;  (** indexed by node, then by step *)
  source_currents : (string * Numerics.Vec.t) list;
      (** branch current of each voltage source across time; the current
          drawn from a supply is the negative of this (see {!Mna}) *)
}

val run : ?x0:Numerics.Vec.t -> Mna.system -> t_stop:float -> steps:int -> result
(** Integrate from a DC operating point at t = 0 (or from [x0]) to [t_stop]
    in [steps] equal steps.
    Raises {!Dcop.No_convergence} if a time-point Newton fails after step
    halving.  Each accepted step bumps the [spice.transient.steps] counter. *)

val voltage_of : result -> int -> Numerics.Vec.t

val energy_from_source : result -> name:string -> vdd:float -> float
(** Energy delivered by the named constant supply over the window:
    -V_dd Integral(i_branch dt) [J].  (Per metre of device width when the
    MOSFET widths are per-metre.) *)
