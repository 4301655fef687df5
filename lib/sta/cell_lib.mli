(** Standard-cell timing characterization — a miniature NLDM library
    generator.

    For each cell and input pin, a transient run per (input slew, output
    load) grid point measures the 50 %-to-50 % propagation delay and the
    20-80 % output slew, for both output edges.  All three cells are
    negative-unate (input rise drives output fall), so each arc carries a
    table pair indexed by the *input* edge.  Leakage is tabulated per input
    state from DC supply current. *)

type cell_kind = Inv | Nand2 | Nor2

val cell_name : cell_kind -> string

val input_count : cell_kind -> int

type arc = {
  pin : int;
  delay_output_rise : Lut.t;  (** input falling -> output rising [s] *)
  delay_output_fall : Lut.t;  (** input rising -> output falling [s] *)
  slew_output_rise : Lut.t;  (** 20-80 %/0.6 equivalent ramp time [s] *)
  slew_output_fall : Lut.t;
}

type cell = {
  kind : cell_kind;
  vdd : float;
  input_cap : float;  (** per input pin [F] *)
  arcs : arc array;  (** indexed by pin *)
  leakage : (bool array * float) list;  (** input state -> supply current [A] *)
}

type library = {
  pair : Circuits.Inverter.pair;
  sizing : Circuits.Inverter.sizing;
  lib_vdd : float;
  cells : (cell_kind * cell) list;
}

val characterize_cell : Circuits.Inverter.pair -> vdd:float -> cell_kind -> cell
(** One balanced-sizing cell over a grid of 3 input slews x 3 loads, scaled
    from the pair's own FO1-equivalent time constant and load
    capacitance. *)

val characterize : Circuits.Inverter.pair -> vdd:float -> library
(** All three cells. *)

val find : library -> cell_kind -> cell
