(** Two-input static CMOS gates (NAND2/NOR2), used by the examples to show
    the library drives arbitrary logic, and by tests to exercise stacked
    devices in the sub-V_th regime (where stack effect is strong). *)

type fixture = {
  circuit : Spice.Netlist.t;
  vdd_name : string;
  a_name : string;
  b_name : string;
  out_node : int;
}

val inv :
  ?sizing:Inverter.sizing ->
  ?a_wave:Spice.Netlist.waveform -> ?b_wave:Spice.Netlist.waveform ->
  Inverter.pair -> vdd:float -> fixture
(** Plain inverter on input A (the B source exists but drives nothing), so
    the three cells share one fixture shape.  [a_wave]/[b_wave] override the
    default DC-0 input sources — transient characterization uses ramps. *)

val nand2 :
  ?sizing:Inverter.sizing ->
  ?a_wave:Spice.Netlist.waveform -> ?b_wave:Spice.Netlist.waveform ->
  Inverter.pair -> vdd:float -> fixture
(** Series NFET stack, parallel PFETs; inputs are the ideal sources A and B. *)

val nor2 :
  ?sizing:Inverter.sizing ->
  ?a_wave:Spice.Netlist.waveform -> ?b_wave:Spice.Netlist.waveform ->
  Inverter.pair -> vdd:float -> fixture
(** Parallel NFETs, series PFET stack. *)
