(** Modified nodal analysis: residual and Jacobian assembly.

    Unknown vector layout: x.(i) for i < n_nodes - 1 is the voltage of node
    i+1 (ground eliminated); the remaining entries are the branch currents
    of the voltage sources, in netlist order.  The voltage-source current
    unknown is the current flowing from the + terminal through the source to
    the - terminal (i.e. a positive supply sources current out of +, so the
    current *drawn from* a supply is the negative of this unknown).

    Equations are ordered like the unknowns, except that each voltage source
    trades rows with one of its non-ground terminals: that node's KCL
    equation takes the source's branch row, and the source's constraint
    v+ - v- = value takes the node's row.  Every diagonal of the Jacobian is
    then structurally nonzero (a source's +-1, or a node's gmin), so it is
    factored by {!Numerics.Sparse_lu} without pivoting. *)

type system
(** Immutable once built, so one system can be shared across domains.
    A system has two halves.  Its topology is what {!build} computes once:
    the stamps and their Jacobian slots, the source-row matching and the
    symbolic LU.  Its values are the voltage sources' waveforms and the
    capacitors' farads, the netlist's own unless {!with_values} replaced
    them.  {!with_values} makes a new system that shares the topology, so
    a sweep over input ramps and loads builds its circuit once, and every
    system it hands out stays as immutable as the one it came from. *)

val build : Netlist.t -> system
(** Resolve the netlist's elements: resistor conductances, each MOSFET's
    {!Device.Iv_model.prepare}d coefficients and the Jacobian's structural
    pattern — each stamp's slots, the minimum-degree order and the symbolic
    LU — are computed here, once.  Later changes to the netlist are not
    seen.  Raises [Invalid_argument] naming the voltage source that closes
    a loop of voltage sources (parallel sources and a source shorted to
    itself included): such a system has no solution. *)

val with_values :
  ?waves:(string * Netlist.waveform) list -> ?farads:(int * float) list -> system -> system
(** [with_values ~waves ~farads s] is [s] with the named voltage sources'
    waveforms and the numbered capacitors' values replaced (capacitors in
    {!Netlist.capacitors} order); every other source and capacitor keeps
    its value.  The result shares [s]'s topology, so it solves exactly as
    a fresh {!build} of the netlist with those values would, bit for bit,
    and it costs two small arrays instead of a build.  [s] is not changed.
    Raises [Invalid_argument] naming an unknown source or an index outside
    the capacitors. *)

val size : system -> int
(** Number of unknowns. *)

val n_caps : system -> int

val pattern : system -> Numerics.Sparse_lu.symbolic
(** The Jacobian's symbolic LU; {!Numerics.Sparse_lu.create} on it gives
    the [jac] buffer {!assemble} writes ({!Numerics.Sparse_lu.values}). *)

val voltage : system -> Numerics.Vec.t -> int -> float
(** Node voltage from an unknown vector (handles ground). *)

val source_current : system -> Numerics.Vec.t -> string -> float
(** Branch current of a named voltage source.  Raises [Invalid_argument]
    naming the missing source (and listing the known ones) for an unknown
    name. *)

val source_index : system -> string -> int
(** Index of a named voltage source's branch current in the unknown
    vector; raises like {!source_current}. *)

type cap_companion = { mutable geq : float; mutable ieq : float }
(** Trapezoidal/backward-Euler companion for one capacitor: the stamped
    branch current is geq (v_p - v_m) - ieq.  Mutable, so a transient
    updates one set in place every step. *)

type drive = { mutable time : float; mutable scale : float }
(** The independent sources' setting for one Newton run: the time their
    waveforms are read at, and the factor that multiplies every source
    value (1 but under source-stepping homotopy).  A record of floats
    only is stored flat, so setting a field allocates nothing. *)

val source_values :
  system -> drive -> overrides:(string * float) list -> float array -> unit
(** [source_values s d ~overrides dst] overwrites [dst], one entry per
    voltage source in netlist order, with each source's value under [d]:
    [d.scale] times its waveform at [d.time], or times its value in
    [overrides] (how DC sweeps move their swept source).  The values hold
    for a whole Newton run, so it reads each waveform once per run, not
    once per {!assemble}.  Allocates nothing unless an override matches.
    Raises [Invalid_argument] if [dst] is not one entry per source, and on
    an empty [Pwl] waveform. *)

val assemble :
  system ->
  drive ->
  values:float array ->
  caps:cap_companion array ->
  bias:float array ->
  x:Numerics.Vec.t ->
  f:Numerics.Fvec.t ->
  jac:Numerics.Fvec.t ->
  unit
(** Overwrite the caller-owned [f] (length {!size}) with the residual F(x)
    in equation order, and [jac], the value buffer of a
    {!Numerics.Sparse_lu.t} made from {!pattern}, with the Jacobian dF/dx
    (only its structural entries are stored); each MOSFET stamps its
    analytic {!Device.Iv_model.eval_into}, through the caller's [bias]
    buffer (three floats).  Every stamp reads [x] and writes [f] and [jac]
    in place: a call allocates nothing whatever the circuit's size.
    [values] are the voltage sources' values from {!source_values}; the
    drive's [scale] multiplies every current source.  A 1e-12 S leak
    conductance (gmin) ties every node to ground.  With [caps] empty,
    capacitors are open (DC); otherwise [caps] holds one companion per
    capacitor ({!n_caps}), which it stamps.  Raises [Invalid_argument] on a
    buffer of the wrong length. *)

val cap_voltages : system -> Numerics.Vec.t -> Numerics.Vec.t -> unit
(** [cap_voltages s x dst] overwrites [dst] (length {!n_caps}) with the
    voltage across each capacitor under unknown vector [x]. *)

val cap_farads : system -> int -> float

val node_count : system -> int
(** Number of circuit nodes including ground. *)
