(** Circuit netlists.

    Nodes are small integers; node 0 is ground.  Create nodes through
    {!node} (named) or {!fresh_node}.  MOSFET elements carry a compact
    device ({!Device.Compact.t}) and a width in metres; their bulk is tied
    to their source (the configuration of every circuit in the paper). *)

type waveform =
  | Dc of float
  | Pulse of {
      low : float;
      high : float;
      delay : float;
      rise : float;
      fall : float;
      width : float;
      period : float;
    }
  | Pwl of (float * float) list
      (** piecewise linear (time, value), strictly time-sorted and non-empty;
          construct through {!pwl} to have both properties validated *)

val pwl : (float * float) list -> waveform
(** Validated [Pwl] constructor.  Raises [Invalid_argument] on an empty
    point list or points that are not strictly increasing in time. *)

val waveform_into : waveform -> float array -> int -> unit
(** [waveform_into wave a i] replaces the time [a.(i)] with the value of
    the source waveform at that time (DC value at [t <= 0]).  Clamps to the
    first/last point of a [Pwl] outside its time span; raises
    [Invalid_argument] on [Pwl []] (an empty waveform defines no value).
    The time comes in and the value goes out through [a], so a call from
    another module boxes no float: the solver reads every source once per
    Newton run. *)

type mosfet = {
  dev : Device.Compact.t;
  width : float;  (** device width [m] *)
  drain : int;
  gate : int;
  source : int;
}

type element =
  | Resistor of { plus : int; minus : int; ohms : float }
  | Capacitor of { plus : int; minus : int; farads : float }
  | Voltage_source of { name : string; plus : int; minus : int; wave : waveform }
  | Current_source of { plus : int; minus : int; amps : float }
  | Nmos of mosfet
  | Pmos of mosfet

type t

val create : unit -> t

val ground : int

val node : t -> string -> int
(** Return the node with this name, creating it on first use. *)

val fresh_node : t -> int

val node_name : t -> int -> string
(** Best-effort name for diagnostics ("n7" for anonymous nodes). *)

val add : t -> element -> unit

val elements : t -> element list
(** In insertion order. *)

val n_nodes : t -> int
(** Including ground. *)

val voltage_sources : t -> (string * int * int * waveform) list
(** In insertion order — the order of the MNA branch-current unknowns. *)

val capacitors : t -> (int * int * float) list
(** In insertion order — the order of transient companion state. *)
