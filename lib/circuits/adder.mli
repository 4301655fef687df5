(** Ripple-carry adder built from NAND2 cells — a gate-level datapath
    workload for the sub-V_th operating point (the kind of logic the
    paper's sensor-processor applications are made of).

    Each full adder is the classic nine-NAND network; every gate output
    carries an FO1-equivalent load so transient delays are realistic. *)

type t = {
  circuit : Spice.Netlist.t;
  vdd_name : string;
  a_names : string array;  (** per-bit input source names, LSB first *)
  b_names : string array;
  cin_name : string;
  sum_nodes : int array;  (** LSB first *)
  cout_node : int;
  bits : int;
  vdd : float;
}

val ripple_carry : Inverter.pair -> vdd:float -> bits:int -> t
(** Raises [Invalid_argument] for [bits] outside 1..62: the input words
    are OCaml ints. *)

val compute : t -> a:int -> b:int -> cin:int -> int * int
(** DC-solve the adder with the given input words and return
    [(sum, carry_out)], thresholding outputs at V_dd/2.  Raises
    [Invalid_argument] if an input exceeds the bit width. *)

val carry_delay : ?steps:int -> Inverter.pair -> vdd:float -> bits:int -> float
(** Worst-case carry-propagation delay [s]: with A = all ones and B = 0,
    a carry-in edge must ripple through every stage; measured from a
    transient as the 50 % crossing of carry-out after the input edge.
    Raises [Failure] if the output never switches in the window, and
    [Invalid_argument] like {!ripple_carry} before building anything. *)
