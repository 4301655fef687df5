(** Transient analysis: fixed-step trapezoidal integration with a Newton
    solve per time point (capacitors as trapezoidal companion models).
    The first step is backward Euler to damp the trapezoidal rule's
    start-up ringing.

    Both entry points drive one integration loop that hands each accepted
    step to its consumer.  {!run} records the signals its caller declares
    as probes (memory O(probes x steps), not O(nodes x steps));
    {!first_crossings} streams one node through {!Waveform.segment_crossing}
    and keeps only the crossings, so its memory does not grow with the
    steps.  One {!Dcop.workspace} serves every Newton solve of a run, the
    initial operating point's included. *)

type probe =
  | Node of int  (** a node voltage (node 0 is ground) *)
  | Source of string
      (** the branch current of a named voltage source; the current drawn
          from a supply is the negative of this (see {!Mna}) *)

type result

val run :
  ?x0:Numerics.Vec.t ->
  Mna.system ->
  probes:probe list ->
  t_stop:float ->
  steps:int ->
  result
(** Integrate from a DC operating point at t = 0 (or from [x0]) to [t_stop]
    in [steps] equal steps, recording each probe at every accepted time
    point.  Raises [Invalid_argument] for a node outside the circuit or an
    unknown source name, before integrating; {!Dcop.No_convergence} if a
    time-point Newton fails after step halving.  Each accepted step bumps
    the [spice.transient.steps] counter. *)

val first_crossings :
  Mna.system ->
  node:int ->
  levels:float list ->
  after:float ->
  t_stop:float ->
  steps:int ->
  float option list
(** Integrate as {!run} does (from the DC operating point at t = 0) and
    return, per level in order, the node voltage's first crossing of that
    level in either direction at or after [after]: bit for bit what
    {!Waveform.first_crossing} [~after ~level Either] returns over {!run}'s
    record of the node, but without recording it.  [None] for a level the
    node does not cross.  Raises and counts steps as {!run} does. *)

val times : result -> Numerics.Vec.t
(** The accepted time points, starting at 0. *)

val voltage_of : result -> int -> Numerics.Vec.t
(** A probed node's voltage at each of {!times}.  Raises [Invalid_argument]
    naming the node if the run did not probe it. *)

val current_of : result -> string -> Numerics.Vec.t
(** A probed source's branch current at each of {!times}.  Raises
    [Invalid_argument] naming the source if the run did not probe it. *)

val energy_from_source : result -> name:string -> vdd:float -> float
(** Energy delivered by the named constant supply over the window:
    -V_dd Integral(i_branch dt) [J].  (Per metre of device width when the
    MOSFET widths are per-metre.)  Raises [Invalid_argument] naming the
    source if the run did not probe it. *)
