(** Modified nodal analysis: residual and Jacobian assembly.

    Unknown vector layout: x.(i) for i < n_nodes - 1 is the voltage of node
    i+1 (ground eliminated); the remaining entries are the branch currents
    of the voltage sources, in netlist order.  The voltage-source current
    unknown is the current flowing from the + terminal through the source to
    the - terminal (i.e. a positive supply sources current out of +, so the
    current *drawn from* a supply is the negative of this unknown). *)

type system
(** Immutable once built, so one system can be shared across domains. *)

val build : Netlist.t -> system
(** Resolve the netlist's elements: resistor conductances and each
    MOSFET's {!Device.Iv_model.prepare}d coefficients are computed here,
    once.  Later changes to the netlist are not seen. *)

val size : system -> int
(** Number of unknowns. *)

val n_caps : system -> int

val voltage : system -> Numerics.Vec.t -> int -> float
(** Node voltage from an unknown vector (handles ground). *)

val source_current : system -> Numerics.Vec.t -> string -> float
(** Branch current of a named voltage source.  Raises [Invalid_argument]
    naming the missing source (and listing the known ones) for an unknown
    name. *)

type cap_companion = { geq : float; ieq : float }
(** Trapezoidal/backward-Euler companion for one capacitor: the stamped
    branch current is geq (v_p - v_m) - ieq. *)

val assemble :
  system ->
  time:float ->
  ?source_scale:float ->
  ?overrides:(string * float) list ->
  ?caps:cap_companion array ->
  x:Numerics.Vec.t ->
  f:Numerics.Vec.t ->
  jac:Numerics.Matrix.t ->
  unit ->
  unit
(** Overwrite the caller-owned [f] (length {!size}) with the KCL residual
    F(x) and the {!size} x {!size} [jac] with the Jacobian dF/dx; each
    MOSFET stamps its analytic {!Device.Iv_model.eval}.  [source_scale]
    multiplies every independent source value (for source-stepping
    homotopy).  A 1e-12 S leak conductance (gmin) ties every node to
    ground.
    [overrides] replaces the waveform value of named voltage sources — how
    DC sweeps move their swept source.  Without [caps], capacitors are open
    (DC); with [caps] (length {!n_caps}), each capacitor stamps its
    companion model. *)

val cap_voltage : system -> Numerics.Vec.t -> int -> float
(** Voltage across the i-th capacitor under unknown vector [x]. *)

val cap_farads : system -> int -> float

val node_count : system -> int
(** Number of circuit nodes including ground. *)

val source_list : system -> (string * int * int * Netlist.waveform) list
(** The voltage sources in branch-unknown order. *)
