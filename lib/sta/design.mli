(** Gate-level combinational netlists for timing analysis. *)

type net = int

type gate = { cell : Cell_lib.cell_kind; inputs : net array; output : net }

type t

val create : unit -> t

val fresh_net : t -> net

val add_gate : t -> Cell_lib.cell_kind -> inputs:net array -> output:net -> unit
(** Raises [Invalid_argument] if the input count does not match the cell or
    if the output net already has a driver. *)

val mark_input : t -> net -> unit

val mark_output : t -> net -> unit

val gates : t -> gate list

val n_nets : t -> int

val primary_inputs : t -> net list

val primary_outputs : t -> net list

val topological_gates : t -> gate list
(** Gates ordered so every gate appears after the drivers of its inputs.
    Raises [Failure] on a combinational loop or an undriven internal net
    (nets that are not primary inputs must be driven). *)

val evaluate : t -> inputs:(net -> bool) -> bool array
(** Zero-delay logic simulation: the Boolean value of every net given the
    primary-input assignment.  Raises [Failure] on cyclic designs. *)

(** {2 Generators} *)

val inverter_chain : t -> length:int -> net -> net
(** Append a chain of inverters from the given net; returns the final net. *)

val ripple_carry_adder : t -> a:net array -> b:net array -> cin:net -> net array * net
(** N-bit adder over existing nets; returns (sums, cout). *)

type adder = {
  design : t;
  a : net array;
  b : net array;
  cin : net;
  sums : net array;
  cout : net;
}

val adder : bits:int -> adder
(** A fresh design holding an N-bit {!ripple_carry_adder}, with [a], [b]
    and [cin] marked as primary inputs and [sums] and [cout] as primary
    outputs. *)
