(** CMOS inverter circuit builders on top of the netlist layer.

    Widths are in metres of gate width; the default NFET width is 1 um with
    the PFET upsized by the mobility ratio, which balances I_o,N = I_o,P —
    the symmetry assumption behind the paper's Eq. 3(c). *)

type sizing = { wn : float; wp : float }

val balanced_sizing : unit -> sizing
(** [wn] = 1 um; [wp = wn * mu_n/mu_p]. *)

type pair = { nfet : Device.Compact.t; pfet : Device.Compact.t }

val pair_of_physical : ?cal:Device.Params.calibration -> Device.Params.physical -> pair
(** NFET and mirror PFET from one set of physical parameters. *)

val gate_capacitance : pair -> sizing -> float
(** Input capacitance C_g,n W_n + C_g,p W_p [F]. *)

val load_capacitance : pair -> sizing -> float
(** FO1 switched load including parasitics (load_factor x gate cap) [F]. *)

type dc_fixture = {
  circuit : Spice.Netlist.t;
  vin_name : string;  (** input source to sweep *)
  vdd_name : string;
  out_node : int;
  in_node : int;
}

val dc : ?sizing:sizing -> pair -> vdd:float -> dc_fixture
(** Single inverter with ideal voltage-source input — the VTC fixture. *)

type transient_fixture = {
  circuit : Spice.Netlist.t;
  vdd_name : string;
  stage_nodes : int array;  (** input node followed by each stage output *)
}

val chain_fixture :
  ?sizing:sizing ->
  ?stages:int ->
  pair ->
  vdd:float ->
  input:Spice.Netlist.waveform ->
  transient_fixture
(** A chain of [stages] (default 4) FO1-loaded inverters driven by [input];
    every internal node carries the FO1 load (the next gate plus parasitics),
    and the last node carries the same load explicitly.  Delay is measured on
    an interior stage so the input slope is realistic. *)

val tapered_chain_fixture :
  scales:float array ->
  pair ->
  vdd:float ->
  input:Spice.Netlist.waveform ->
  final_load:float ->
  transient_fixture
(** A buffer chain whose stage [i] is the balanced sizing scaled by
    [scales.(i)], terminating into [final_load] farads.  Node loads carry
    the next stage's gate capacitance explicitly plus each driver's own
    (load_factor - 1) parasitic. *)
